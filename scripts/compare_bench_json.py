#!/usr/bin/env python3
"""Diff a fresh BENCH_<name>.json run report against a committed baseline.

Usage:
  compare_bench_json.py --baseline BASE.json --candidate NEW.json
  compare_bench_json.py --baseline BASE.json --run BENCH_BINARY
  compare_bench_json.py --baseline BASE.json --candidate NEW.json --self-test

What is compared (stdlib only, runs inside ctest):

  structure   phase names, fingerprint keys, counter/gauge/histogram names —
              the candidate must contain everything the baseline has (new
              entries are allowed; removals fail).
  fingerprint string fingerprint entries must match exactly; numeric ones
              within --fingerprint-tolerance (default exact). These are
              dataset shapes and config knobs, so drift means the bench no
              longer measures the same thing.
  counters    counter values within --counter-tolerance relative difference
              (default 0: the repo's benches are seeded and deterministic).
  phases      phase counts must match; phase/wall *times* are NOT compared
              by default because they vary across machines. Opt in with
              --time-tolerance to check wall_seconds and phase seconds.

  quality     when the baseline carries a "quality" section, the candidate
              must too, and per (kind, method, city) group each gated metric
              may not degrade by more than an ABSOLUTE tolerance:
              mean_quality may not drop, ece/brier may not rise. Defaults
              are 0.02 each; override per metric with
              --quality-tolerance NAME=VALUE (repeatable).

--self-test perturbs a copy of the candidate (bumps the first counter,
drops a phase, and inflates baseline quality so the candidate reads as a
degraded-accuracy report) and verifies the comparison fails on it —
proving the guard can actually detect regressions — then compares the
unmodified candidate.
"""

import argparse
import copy
import json
import numbers
import os
import subprocess
import sys
import tempfile


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def metric_map(doc, section):
    out = {}
    for item in doc.get("metrics", {}).get(section, []):
        labels = tuple(sorted(item.get("labels", {}).items()))
        out[(item.get("name"), labels)] = item
    return out


def phase_map(doc):
    return {p.get("name"): p for p in doc.get("phases", [])}


def rel_diff(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom > 0 else 0.0


def key_str(key):
    name, labels = key
    if not labels:
        return str(name)
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


# Gated quality metrics: name -> (higher_is_better, default absolute-drop
# tolerance). Degradation beyond the tolerance fails the comparison;
# improvement never does.
QUALITY_METRICS = {
    "mean_quality": (True, 0.02),
    "ece": (False, 0.02),
    "brier": (False, 0.02),
}


def quality_group_map(doc):
    """(kind, method, city) -> gated metric values, None when unmeasured."""
    quality = doc.get("quality")
    if not isinstance(quality, dict):
        return {}
    out = {}
    for g in quality.get("groups", []):
        key = (g.get("kind"), g.get("method"), g.get("city"))
        cal = g.get("calibration", {})
        calibrated = isinstance(cal, dict) and cal.get("samples", 0) > 0
        mean_quality = g.get("mean_quality")
        out[key] = {
            "mean_quality": mean_quality if isinstance(
                mean_quality, numbers.Real) and mean_quality >= 0 else None,
            "ece": cal.get("ece") if calibrated else None,
            "brier": cal.get("brier") if calibrated else None,
        }
    return out


def quality_key_str(key):
    return "/".join(str(k) for k in key)


def compare_quality(baseline, candidate, tolerances):
    diffs = []
    base_groups = quality_group_map(baseline)
    cand_groups = quality_group_map(candidate)
    if base_groups and not cand_groups:
        diffs.append("quality section missing from candidate")
        return diffs
    for key, base_metrics in base_groups.items():
        cand_metrics = cand_groups.get(key)
        if cand_metrics is None:
            diffs.append(f"quality group {quality_key_str(key)} missing "
                         "from candidate")
            continue
        for name, (higher_better, _) in QUALITY_METRICS.items():
            bv = base_metrics.get(name)
            if bv is None:
                continue
            cv = cand_metrics.get(name)
            if cv is None:
                diffs.append(f"quality {quality_key_str(key)} '{name}': "
                             "measured in baseline but not in candidate")
                continue
            tol = tolerances[name]
            degradation = (bv - cv) if higher_better else (cv - bv)
            if degradation > tol:
                direction = "dropped" if higher_better else "rose"
                diffs.append(f"quality {quality_key_str(key)} '{name}' "
                             f"{direction}: baseline {bv:.4f} vs candidate "
                             f"{cv:.4f} (absolute tolerance {tol})")
    return diffs


def serving_row_map(doc):
    """(mode, load_factor) -> row, for the "serving" section."""
    serving = doc.get("serving")
    if not isinstance(serving, dict):
        return {}
    out = {}
    for row in serving.get("rows", []):
        if isinstance(row, dict):
            out[(row.get("mode"), row.get("load_factor"))] = row
    return out


def compare_serving(baseline, candidate, p99_tol, shed_tol):
    """Serving gates: per matched (mode, load_factor) row, the candidate's
    p99 latency may not blow past baseline * (1 + p99_tol) — a RATIO, not a
    rel_diff, because rel_diff saturates at 1.0 and cannot express "4x
    slower" — and its shed rate may not exceed baseline + shed_tol
    (absolute: sheds are load-dependent, structurally bounded)."""
    diffs = []
    base_rows = serving_row_map(baseline)
    cand_rows = serving_row_map(candidate)
    if base_rows and not cand_rows:
        diffs.append("serving section missing from candidate")
        return diffs
    for key, base_row in base_rows.items():
        cand_row = cand_rows.get(key)
        mode, factor = key
        where = f"serving {mode}@x{factor}"
        if cand_row is None:
            diffs.append(f"{where}: row missing from candidate")
            continue
        bp, cp = base_row.get("p99_us"), cand_row.get("p99_us")
        if isinstance(bp, numbers.Real) and isinstance(cp, numbers.Real) \
                and bp > 0 and cp > bp * (1.0 + p99_tol):
            diffs.append(f"{where} p99_us regressed: baseline {bp:.0f} vs "
                         f"candidate {cp:.0f} (ratio tolerance {p99_tol})")
        bs, cs = base_row.get("shed_rate"), cand_row.get("shed_rate")
        if isinstance(bs, numbers.Real) and isinstance(cs, numbers.Real) \
                and cs > bs + shed_tol:
            diffs.append(f"{where} shed_rate rose: baseline {bs:.3f} vs "
                         f"candidate {cs:.3f} (absolute tolerance "
                         f"{shed_tol})")
    return diffs


def compare(baseline, candidate, counter_tol, fingerprint_tol, time_tol,
            quality_tol=None, serving_p99_tol=3.0, serving_shed_tol=0.25):
    """Returns a list of human-readable difference strings (empty = pass)."""
    diffs = []

    base_fp = baseline.get("fingerprint", {})
    cand_fp = candidate.get("fingerprint", {})
    for key, base_val in base_fp.items():
        if key not in cand_fp:
            diffs.append(f"fingerprint '{key}' missing from candidate")
            continue
        cand_val = cand_fp[key]
        if isinstance(base_val, str) or isinstance(cand_val, str):
            if base_val != cand_val:
                diffs.append(f"fingerprint '{key}': baseline {base_val!r} "
                             f"vs candidate {cand_val!r}")
        elif rel_diff(float(base_val), float(cand_val)) > fingerprint_tol:
            diffs.append(f"fingerprint '{key}': baseline {base_val} vs "
                         f"candidate {cand_val} "
                         f"(tolerance {fingerprint_tol})")

    base_phases = phase_map(baseline)
    cand_phases = phase_map(candidate)
    for name, base_ph in base_phases.items():
        cand_ph = cand_phases.get(name)
        if cand_ph is None:
            diffs.append(f"phase '{name}' missing from candidate")
            continue
        if base_ph.get("count") != cand_ph.get("count"):
            diffs.append(f"phase '{name}' count: baseline "
                         f"{base_ph.get('count')} vs candidate "
                         f"{cand_ph.get('count')}")
        if time_tol is not None and isinstance(
                base_ph.get("seconds"), numbers.Real) and isinstance(
                cand_ph.get("seconds"), numbers.Real):
            if rel_diff(base_ph["seconds"], cand_ph["seconds"]) > time_tol:
                diffs.append(f"phase '{name}' seconds: baseline "
                             f"{base_ph['seconds']:.4f} vs candidate "
                             f"{cand_ph['seconds']:.4f} "
                             f"(tolerance {time_tol})")

    if time_tol is not None:
        bw = baseline.get("wall_seconds")
        cw = candidate.get("wall_seconds")
        if isinstance(bw, numbers.Real) and isinstance(cw, numbers.Real):
            if rel_diff(bw, cw) > time_tol:
                diffs.append(f"wall_seconds: baseline {bw:.4f} vs candidate "
                             f"{cw:.4f} (tolerance {time_tol})")

    base_counters = metric_map(baseline, "counters")
    cand_counters = metric_map(candidate, "counters")
    for key, base_item in base_counters.items():
        cand_item = cand_counters.get(key)
        if cand_item is None:
            diffs.append(f"counter {key_str(key)} missing from candidate")
            continue
        bv, cv = base_item.get("value", 0), cand_item.get("value", 0)
        if rel_diff(float(bv), float(cv)) > counter_tol:
            diffs.append(f"counter {key_str(key)}: baseline {bv} vs "
                         f"candidate {cv} (tolerance {counter_tol})")

    for section in ("gauges", "histograms"):
        base_named = metric_map(baseline, section)
        cand_named = metric_map(candidate, section)
        for key in base_named:
            if key not in cand_named:
                diffs.append(f"{section[:-1]} {key_str(key)} missing "
                             "from candidate")

    tolerances = {name: default for name, (_, default)
                  in QUALITY_METRICS.items()}
    tolerances.update(quality_tol or {})
    diffs.extend(compare_quality(baseline, candidate, tolerances))
    diffs.extend(compare_serving(baseline, candidate, serving_p99_tol,
                                 serving_shed_tol))

    return diffs


def perturb(candidate):
    """Deliberately corrupted copy used by --self-test."""
    bad = copy.deepcopy(candidate)
    counters = bad.get("metrics", {}).get("counters", [])
    if counters:
        counters[0]["value"] = counters[0].get("value", 0) * 3 + 1000
    if bad.get("phases"):
        bad["phases"] = bad["phases"][1:]
    if not counters and not bad.get("phases"):
        bad["fingerprint"] = dict(bad.get("fingerprint", {}),
                                  scale="perturbed")
    # The perturbed copy is used as the BASELINE, so inflating its accuracy
    # (and deflating its calibration error) makes the real candidate read as
    # a degraded-accuracy report — which the quality gate must reject.
    if isinstance(bad.get("quality"), dict):
        for g in bad["quality"].get("groups", []):
            if isinstance(g.get("mean_quality"), numbers.Real) and \
                    g["mean_quality"] >= 0:
                g["mean_quality"] = min(g["mean_quality"] + 0.5, 1.0)
            cal = g.get("calibration")
            if isinstance(cal, dict) and cal.get("samples", 0) > 0:
                cal["ece"] = 0.0
                cal["brier"] = 0.0
    # Same trick for serving: a near-zero baseline p99 and an impossible
    # shed rate make any real candidate read as a regression, proving the
    # serving gates can fire.
    if isinstance(bad.get("serving"), dict):
        for row in bad["serving"].get("rows", []):
            if isinstance(row, dict):
                row["p99_us"] = 1e-9
                row["shed_rate"] = -1.0
    return bad


def run_bench(binary, workdir):
    # The subprocess runs with cwd=workdir, so a relative binary path given
    # on the command line must be resolved against the caller's cwd first.
    binary = os.path.abspath(binary)
    obs_dir = tempfile.mkdtemp(prefix="bench_regress_", dir=workdir or None)
    env = dict(os.environ)
    env.setdefault("TRMMA_BENCH_SCALE", "smoke")
    env.setdefault("TRMMA_BENCH_CITIES", "PT")
    env["TRMMA_OBS_DIR"] = obs_dir
    print(f"running {binary} (scale={env['TRMMA_BENCH_SCALE']}, "
          f"cities={env['TRMMA_BENCH_CITIES']})", flush=True)
    proc = subprocess.run([binary], env=env, cwd=workdir or None)
    if proc.returncode != 0:
        print(f"FAIL: {binary} exited with {proc.returncode}")
        return None
    reports = [os.path.join(obs_dir, f) for f in sorted(os.listdir(obs_dir))
               if f.startswith("BENCH_") and f.endswith(".json")]
    if len(reports) != 1:
        print(f"FAIL: expected exactly one BENCH_*.json in {obs_dir}, "
              f"found {len(reports)}")
        return None
    return reports[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--candidate", help="fresh BENCH_*.json to compare")
    parser.add_argument("--run", metavar="BINARY",
                        help="bench binary producing the candidate report")
    parser.add_argument("--workdir", default=None,
                        help="working directory for --run")
    parser.add_argument("--counter-tolerance", type=float, default=0.0,
                        help="max relative counter difference (default 0)")
    parser.add_argument("--fingerprint-tolerance", type=float, default=0.0,
                        help="max relative numeric-fingerprint difference")
    parser.add_argument("--time-tolerance", type=float, default=None,
                        help="if set, also compare wall/phase seconds "
                             "within this relative tolerance")
    parser.add_argument("--quality-tolerance", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="absolute degradation tolerance for a gated "
                             "quality metric (mean_quality, ece, brier); "
                             "repeatable, e.g. --quality-tolerance "
                             "mean_quality=0.05")
    parser.add_argument("--serving-p99-tolerance", type=float, default=3.0,
                        help="serving p99 ratio tolerance: flag when "
                             "candidate p99 > baseline * (1 + tol) at a "
                             "matched load point (default 3.0)")
    parser.add_argument("--serving-shed-tolerance", type=float, default=0.25,
                        help="serving shed-rate absolute tolerance at a "
                             "matched load point (default 0.25)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparison fails on a perturbed "
                             "candidate before the real comparison")
    args = parser.parse_args()

    if bool(args.candidate) == bool(args.run):
        parser.error("pass exactly one of --candidate or --run")

    quality_tol = {}
    for spec in args.quality_tolerance:
        name, eq, value = spec.partition("=")
        if not eq or name not in QUALITY_METRICS:
            parser.error(f"bad --quality-tolerance {spec!r}: expected "
                         f"NAME=VALUE with NAME one of "
                         f"{sorted(QUALITY_METRICS)}")
        try:
            quality_tol[name] = float(value)
        except ValueError:
            parser.error(f"bad --quality-tolerance value in {spec!r}")

    candidate_path = args.candidate
    if args.run:
        candidate_path = run_bench(args.run, args.workdir)
        if candidate_path is None:
            return 1

    baseline = load(args.baseline)
    candidate = load(candidate_path)

    if args.self_test:
        bad_diffs = compare(perturb(candidate), candidate,
                            args.counter_tolerance,
                            args.fingerprint_tolerance, args.time_tolerance,
                            quality_tol, args.serving_p99_tolerance,
                            args.serving_shed_tolerance)
        if quality_group_map(candidate) and not any(
                d.startswith("quality ") for d in bad_diffs):
            print("FAIL: self-test — quality gate did not flag a "
                  "degraded-accuracy report")
            return 1
        if serving_row_map(candidate) and not any(
                d.startswith("serving ") for d in bad_diffs):
            print("FAIL: self-test — serving gate did not flag a "
                  "degraded-latency report")
            return 1
        if not bad_diffs:
            print("FAIL: self-test — comparison did not flag a "
                  "deliberately perturbed baseline")
            return 1
        print(f"self-test OK: perturbation detected "
              f"({len(bad_diffs)} differences)")

    diffs = compare(baseline, candidate, args.counter_tolerance,
                    args.fingerprint_tolerance, args.time_tolerance,
                    quality_tol, args.serving_p99_tolerance,
                    args.serving_shed_tolerance)
    if diffs:
        print(f"REGRESSION: {candidate_path} vs {args.baseline}")
        for d in diffs:
            print(f"  {d}")
        return 1
    print(f"OK: {candidate_path} matches {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
