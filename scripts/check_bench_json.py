#!/usr/bin/env python3
"""Validate BENCH_<name>.json run reports emitted by the bench binaries.

Usage:
  check_bench_json.py FILE [FILE ...]        validate existing report files
  check_bench_json.py --run BENCH_BINARY     run a bench at smoke scale on a
                                             single city, then validate the
                                             report it writes

The schema is intentionally small and hand-rolled (stdlib only) so it can run
inside ctest with no extra dependencies. It checks the structural contract
documented in DESIGN.md: top-level name/wall_seconds/fingerprint/phases/
metrics, phase entries with name+seconds+count, metric sections with the
right value fields, and that at least one histogram carries p50/p95/p99.
The optional "op_profile", "training", "flight_recorder", "quality",
"memory", "profile" and "slo" sections (present when the matching
telemetry was enabled) are validated whenever they appear;
--require-op-profile / --require-training / --require-flight-recorder /
--require-quality / --require-memory / --require-profile make their
absence an error
(the flight_recorder check also demands replay_mismatches == 0; the
quality check validates group/slice/calibration/drift structure and that
calibration bin counts sum to the sample count; --require-profile
additionally demands that the CPU profiler actually sampled — samples > 0
with a non-empty frame table).
--trace FILE additionally
validates a Chrome trace-event JSON file (as written under
TRMMA_TRACE_FILE); complete spans ("X"), flow arrows ("s"/"f") and
metadata events ("M") are all accepted, with span nesting checked over
the complete spans only.
"""

import argparse
import json
import numbers
import os
import subprocess
import sys
import tempfile

HIST_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")


def fail(path, msg, errors):
    errors.append(f"{path}: {msg}")


def check_labels(obj, where, path, errors):
    labels = obj.get("labels")
    if not isinstance(labels, dict):
        fail(path, f"{where}: 'labels' must be an object", errors)
        return
    for k, v in labels.items():
        if not isinstance(k, str) or not isinstance(v, str):
            fail(path, f"{where}: labels must map strings to strings", errors)


def check_metric_list(metrics, section, value_check, path, errors):
    items = metrics.get(section)
    if not isinstance(items, list):
        fail(path, f"metrics.{section} missing or not a list", errors)
        return []
    for i, item in enumerate(items):
        where = f"metrics.{section}[{i}]"
        if not isinstance(item, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if not isinstance(item.get("name"), str) or not item.get("name"):
            fail(path, f"{where}: missing non-empty 'name'", errors)
        check_labels(item, where, path, errors)
        value_check(item, where)
    return items


FLIGHT_INT_FIELDS = ("requests", "retained", "written", "bytes",
                     "replay_mismatches", "sample_every")


def check_flight_recorder(doc, path, errors, required=False):
    fr = doc.get("flight_recorder")
    if fr is None:
        if required:
            fail(path, "missing 'flight_recorder' section "
                       "(was the flight recorder enabled?)", errors)
        return
    if not isinstance(fr, dict):
        fail(path, "'flight_recorder' must be an object", errors)
        return
    for field in FLIGHT_INT_FIELDS:
        value = fr.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"flight_recorder: missing integer '{field}'", errors)
        elif value < 0:
            fail(path, f"flight_recorder: '{field}' must be >= 0", errors)
    if isinstance(fr.get("requests"), int) and fr["requests"] > 0:
        if isinstance(fr.get("written"), int) and fr["written"] < 1:
            fail(path, "flight_recorder: captured requests but wrote "
                       "no records", errors)
    # The record/replay determinism contract: any divergence between a
    # captured exemplar and its replay fails the bench.
    if isinstance(fr.get("replay_mismatches"), int) and \
            fr["replay_mismatches"] != 0:
        fail(path, f"flight_recorder: replay_mismatches = "
                   f"{fr['replay_mismatches']}, expected 0", errors)


OP_PROFILE_INT_FIELDS = ("calls", "bytes")
OP_PROFILE_NUM_FIELDS = ("forward_us", "backward_us", "flops")
TRAINING_FIELDS = ("steps", "last_loss", "mean_loss", "max_grad_norm",
                   "anomalies")


def check_op_profile(doc, path, errors, required=False):
    ops = doc.get("op_profile")
    if ops is None:
        if required:
            fail(path, "missing 'op_profile' section "
                       "(was the op profiler enabled?)", errors)
        return
    if not isinstance(ops, list) or not ops:
        fail(path, "'op_profile' must be a non-empty list", errors)
        return
    total_us = 0.0
    for i, op in enumerate(ops):
        where = f"op_profile[{i}]"
        if not isinstance(op, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if not isinstance(op.get("name"), str) or not op.get("name"):
            fail(path, f"{where}: missing non-empty 'name'", errors)
        for field in OP_PROFILE_INT_FIELDS:
            if not isinstance(op.get(field), int):
                fail(path, f"{where}: missing integer '{field}'", errors)
        for field in OP_PROFILE_NUM_FIELDS:
            if not isinstance(op.get(field), numbers.Real):
                fail(path, f"{where}: missing numeric '{field}'", errors)
        if isinstance(op.get("calls"), int) and op["calls"] < 1:
            fail(path, f"{where}: 'calls' must be >= 1", errors)
        if isinstance(op.get("forward_us"), numbers.Real) and isinstance(
                op.get("backward_us"), numbers.Real):
            total_us += op["forward_us"] + op["backward_us"]
    # Entries are sorted by total time, descending.
    keyed = [op for op in ops if isinstance(op, dict)
             and isinstance(op.get("forward_us"), numbers.Real)
             and isinstance(op.get("backward_us"), numbers.Real)]
    totals = [op["forward_us"] + op["backward_us"] for op in keyed]
    if totals != sorted(totals, reverse=True):
        fail(path, "op_profile entries not sorted by total time", errors)
    if total_us <= 0.0:
        fail(path, "op_profile accounts for zero time", errors)


def check_training(doc, path, errors, required=False):
    training = doc.get("training")
    if training is None:
        if required:
            fail(path, "missing 'training' section "
                       "(did any model train with telemetry on?)", errors)
        return
    if not isinstance(training, list) or not training:
        fail(path, "'training' must be a non-empty list", errors)
        return
    for i, row in enumerate(training):
        where = f"training[{i}]"
        if not isinstance(row, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if not isinstance(row.get("model"), str) or not row.get("model"):
            fail(path, f"{where}: missing non-empty 'model'", errors)
        for field in TRAINING_FIELDS:
            if not isinstance(row.get(field), numbers.Real):
                fail(path, f"{where}: missing numeric '{field}'", errors)
        if isinstance(row.get("steps"), int) and row["steps"] < 1:
            fail(path, f"{where}: 'steps' must be >= 1", errors)


CALIBRATION_INT_FIELDS = ("samples", "dropped_nonfinite",
                          "dropped_out_of_range")
RANK_BUCKETS = 11  # kQualityRankBuckets + 1 overflow bucket


def check_quality(doc, path, errors, required=False):
    quality = doc.get("quality")
    if quality is None:
        if required:
            fail(path, "missing 'quality' section "
                       "(was TRMMA_QUALITY telemetry enabled?)", errors)
        return
    if not isinstance(quality, dict):
        fail(path, "'quality' must be an object", errors)
        return
    groups = quality.get("groups")
    if not isinstance(groups, list) or not groups:
        fail(path, "quality: 'groups' must be a non-empty list", errors)
        groups = []
    for i, g in enumerate(groups):
        where = f"quality.groups[{i}]"
        if not isinstance(g, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        for field in ("kind", "method", "city"):
            if not isinstance(g.get(field), str) or not g.get(field):
                fail(path, f"{where}: missing non-empty '{field}'", errors)
        for field in ("requests", "scored"):
            if not isinstance(g.get(field), int) or g.get(field, -1) < 0:
                fail(path, f"{where}: missing non-negative int '{field}'",
                     errors)
        if not isinstance(g.get("mean_quality"), numbers.Real):
            fail(path, f"{where}: missing numeric 'mean_quality'", errors)
        for j, s in enumerate(g.get("slices") or []):
            swhere = f"{where}.slices[{j}]"
            if not isinstance(s, dict):
                fail(path, f"{swhere}: not an object", errors)
                continue
            for field in ("dimension", "bucket"):
                if not isinstance(s.get(field), str) or not s.get(field):
                    fail(path, f"{swhere}: missing non-empty '{field}'",
                         errors)
            if not isinstance(s.get("mean_quality"), numbers.Real):
                fail(path, f"{swhere}: missing numeric 'mean_quality'", errors)
        cal = g.get("calibration")
        if not isinstance(cal, dict):
            fail(path, f"{where}: missing object 'calibration'", errors)
            continue
        for field in CALIBRATION_INT_FIELDS:
            if not isinstance(cal.get(field), int) or cal.get(field, -1) < 0:
                fail(path, f"{where}.calibration: missing non-negative int "
                           f"'{field}'", errors)
        for field in ("ece", "brier"):
            v = cal.get(field)
            if not isinstance(v, numbers.Real):
                fail(path, f"{where}.calibration: missing numeric '{field}'",
                     errors)
            elif not 0.0 <= v <= 1.0:
                fail(path, f"{where}.calibration: '{field}' = {v} "
                           "outside [0, 1]", errors)
        bins = cal.get("bins")
        if not isinstance(bins, list):
            fail(path, f"{where}.calibration: 'bins' must be a list", errors)
            bins = []
        bin_count = 0
        for j, b in enumerate(bins):
            bwhere = f"{where}.calibration.bins[{j}]"
            if not isinstance(b, dict):
                fail(path, f"{bwhere}: not an object", errors)
                continue
            for field in ("lo", "hi", "count", "mean_confidence", "accuracy"):
                if not isinstance(b.get(field), numbers.Real):
                    fail(path, f"{bwhere}: missing numeric '{field}'", errors)
            if isinstance(b.get("count"), int):
                bin_count += b["count"]
        if isinstance(cal.get("samples"), int) and cal["samples"] != bin_count:
            fail(path, f"{where}.calibration: bin counts sum to {bin_count} "
                       f"but samples = {cal['samples']}", errors)
        for field in ("chosen_rank", "truth_rank"):
            ranks = cal.get(field)
            if not isinstance(ranks, list) or len(ranks) != RANK_BUCKETS:
                fail(path, f"{where}.calibration: '{field}' must be a list "
                           f"of {RANK_BUCKETS} counts", errors)
    drift = quality.get("drift")
    if not isinstance(drift, list):
        fail(path, "quality: 'drift' must be a list", errors)
        drift = []
    for i, d in enumerate(drift):
        where = f"quality.drift[{i}]"
        if not isinstance(d, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if not isinstance(d.get("feature"), str) or not d.get("feature"):
            fail(path, f"{where}: missing non-empty 'feature'", errors)
        for field in ("train", "serve"):
            if not isinstance(d.get(field), int) or d.get(field, -1) < 0:
                fail(path, f"{where}: missing non-negative int '{field}'",
                     errors)
        if not isinstance(d.get("degenerate"), bool):
            fail(path, f"{where}: missing boolean 'degenerate'", errors)
        psi = d.get("psi")
        if not isinstance(psi, numbers.Real):
            fail(path, f"{where}: missing numeric 'psi'", errors)
        elif not d.get("degenerate") and psi < 0:
            fail(path, f"{where}: 'psi' = {psi} must be >= 0", errors)


MEM_SUBSYSTEMS = ("graph", "rtree", "ubodt", "matrix", "flight_recorder",
                  "other")


def check_memory(doc, path, errors, required=False):
    memory = doc.get("memory")
    if memory is None:
        if required:
            fail(path, "missing 'memory' section "
                       "(was TRMMA_MEM_STATS accounting enabled?)", errors)
        return
    if not isinstance(memory, dict):
        fail(path, "'memory' must be an object", errors)
        return
    for field in ("rss_bytes", "rss_peak_bytes"):
        value = memory.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"memory: missing integer '{field}'", errors)
        elif value <= 0:
            fail(path, f"memory: '{field}' = {value} must be > 0 "
                       "(a live process always has RSS)", errors)
    subsystems = memory.get("subsystems")
    if not isinstance(subsystems, list):
        fail(path, "memory: 'subsystems' must be a list", errors)
        return
    names = []
    for i, sub in enumerate(subsystems):
        where = f"memory.subsystems[{i}]"
        if not isinstance(sub, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if not isinstance(sub.get("name"), str) or not sub.get("name"):
            fail(path, f"{where}: missing non-empty 'name'", errors)
        else:
            names.append(sub["name"])
        for field in ("current_bytes", "peak_bytes"):
            value = sub.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(path, f"{where}: missing integer '{field}'", errors)
            elif value < 0:
                fail(path, f"{where}: '{field}' must be >= 0", errors)
        if isinstance(sub.get("current_bytes"), int) and \
                isinstance(sub.get("peak_bytes"), int) and \
                sub["current_bytes"] > sub["peak_bytes"]:
            fail(path, f"{where}: current_bytes > peak_bytes", errors)
    for name in MEM_SUBSYSTEMS:
        if name not in names:
            fail(path, f"memory: subsystem '{name}' missing", errors)


SERVING_ROW_INT_FIELDS = ("submitted", "success", "degraded", "shed",
                          "timeout", "retries")
SERVING_ROW_NUM_FIELDS = ("load_factor", "offered_qps", "achieved_qps",
                          "shed_rate", "p50_us", "p95_us", "p99_us")


def check_serving(doc, path, errors, required=False):
    serving = doc.get("serving")
    if serving is None:
        if required:
            fail(path, "missing 'serving' section "
                       "(did the bench drive the serving engine?)", errors)
        return
    if not isinstance(serving, dict):
        fail(path, "'serving' must be an object", errors)
        return
    for field in ("threads", "queue_cap"):
        value = serving.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"serving: missing integer '{field}'", errors)
        elif value < 1:
            fail(path, f"serving: '{field}' must be >= 1", errors)
    if not isinstance(serving.get("deadline_ms"), numbers.Real):
        fail(path, "serving: missing numeric 'deadline_ms'", errors)
    capacity = serving.get("capacity_qps")
    if not isinstance(capacity, numbers.Real):
        fail(path, "serving: missing numeric 'capacity_qps'", errors)
    elif capacity <= 0:
        fail(path, f"serving: 'capacity_qps' = {capacity} must be > 0",
             errors)
    rows = serving.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(path, "serving: 'rows' must be a non-empty list", errors)
        return
    for i, row in enumerate(rows):
        where = f"serving.rows[{i}]"
        if not isinstance(row, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if row.get("mode") not in ("closed", "open"):
            fail(path, f"{where}: 'mode' must be 'closed' or 'open'", errors)
        for field in SERVING_ROW_INT_FIELDS:
            value = row.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(path, f"{where}: missing integer '{field}'", errors)
            elif value < 0:
                fail(path, f"{where}: '{field}' must be >= 0", errors)
        for field in SERVING_ROW_NUM_FIELDS:
            if not isinstance(row.get(field), numbers.Real):
                fail(path, f"{where}: missing numeric '{field}'", errors)
        # The engine's no-silent-drops invariant, re-checked on the wire
        # format: every submitted request has exactly one outcome.
        if all(isinstance(row.get(f), int) for f in SERVING_ROW_INT_FIELDS):
            accounted = (row["success"] + row["degraded"] + row["shed"]
                         + row["timeout"])
            if accounted != row["submitted"]:
                fail(path, f"{where}: outcomes sum to {accounted} but "
                           f"submitted = {row['submitted']}", errors)
        shed_rate = row.get("shed_rate")
        if isinstance(shed_rate, numbers.Real) and \
                not 0.0 <= shed_rate <= 1.0:
            fail(path, f"{where}: 'shed_rate' = {shed_rate} outside [0, 1]",
                 errors)
        quantiles = [row.get(f) for f in ("p50_us", "p95_us", "p99_us")]
        if all(isinstance(q, numbers.Real) for q in quantiles) and \
                not quantiles[0] <= quantiles[1] <= quantiles[2]:
            fail(path, f"{where}: latency quantiles not ordered "
                       f"(p50 <= p95 <= p99)", errors)


PROFILE_INT_FIELDS = ("hz", "samples", "dropped", "truncated")


def check_profile(doc, path, errors, required=False):
    profile = doc.get("profile")
    if profile is None:
        if required:
            fail(path, "missing 'profile' section "
                       "(was the CPU profiler able to start?)", errors)
        return
    if not isinstance(profile, dict):
        fail(path, "'profile' must be an object", errors)
        return
    for field in PROFILE_INT_FIELDS:
        value = profile.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"profile: missing integer '{field}'", errors)
        elif value < 0:
            fail(path, f"profile: '{field}' must be >= 0", errors)
    frames = profile.get("frames")
    if not isinstance(frames, list):
        fail(path, "profile: 'frames' must be a list", errors)
        frames = []
    selfs = []
    for i, frame in enumerate(frames):
        where = f"profile.frames[{i}]"
        if not isinstance(frame, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if not isinstance(frame.get("symbol"), str) or not frame.get("symbol"):
            fail(path, f"{where}: missing non-empty 'symbol'", errors)
        for field in ("self", "total"):
            value = frame.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(path, f"{where}: missing integer '{field}'", errors)
            elif value < 0:
                fail(path, f"{where}: '{field}' must be >= 0", errors)
        if isinstance(frame.get("self"), int) and \
                isinstance(frame.get("total"), int) and \
                frame["self"] > frame["total"]:
            fail(path, f"{where}: self > total", errors)
        if isinstance(frame.get("self"), int):
            selfs.append(frame["self"])
    if selfs != sorted(selfs, reverse=True):
        fail(path, "profile: frames not sorted by self time", errors)
    samples = profile.get("samples")
    if isinstance(samples, int) and samples > 0:
        if isinstance(profile.get("hz"), int) and profile["hz"] < 1:
            fail(path, "profile: sampled but 'hz' < 1", errors)
        if not frames:
            fail(path, "profile: sampled but frame table is empty", errors)
    if required:
        # The CI gate: the profiler must have run for real, not merely have
        # emitted an empty section (e.g. a sanitizer build refusing to start).
        if not isinstance(samples, int) or samples < 1:
            fail(path, "profile: --require-profile demands samples >= 1",
                 errors)


def check_slo(doc, path, errors):
    slo = doc.get("slo")
    if slo is None:
        return
    if not isinstance(slo, list):
        fail(path, "'slo' must be a list of objective results", errors)
        return
    for i, r in enumerate(slo):
        where = f"slo[{i}]"
        if not isinstance(r, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        for field in ("name", "metric"):
            if not isinstance(r.get(field), str) or not r.get(field):
                fail(path, f"{where}: missing non-empty '{field}'", errors)
        for field in ("value", "max"):
            if not isinstance(r.get(field), numbers.Real):
                fail(path, f"{where}: missing numeric '{field}'", errors)
        for field in ("has_data", "ok"):
            if not isinstance(r.get(field), bool):
                fail(path, f"{where}: missing boolean '{field}'", errors)
        # The watchdog's own contract: a no-data objective is never a breach.
        if r.get("has_data") is False and r.get("ok") is False:
            fail(path, f"{where}: no-data objective reported as breach",
                 errors)


def check_chrome_trace(path, errors):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(path, f"unreadable or invalid JSON: {e}", errors)
        return
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        fail(path, "'traceEvents' must be a non-empty list", errors)
        return
    spans = []
    flows = {}  # flow id -> set of phases seen ("s"/"f")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        ph = ev.get("ph")
        if ph not in ("X", "s", "f", "M"):
            fail(path, f"{where}: unexpected event ph={ph!r} "
                       "(want X, s, f, or M)", errors)
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            fail(path, f"{where}: missing non-empty 'name'", errors)
        if ph == "M":
            if not isinstance(ev.get("pid"), int):
                fail(path, f"{where}: metadata missing integer 'pid'", errors)
            continue
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                fail(path, f"{where}: missing integer '{field}'", errors)
        if not isinstance(ev.get("ts"), numbers.Real):
            fail(path, f"{where}: missing numeric 'ts'", errors)
        if ph in ("s", "f"):
            if not isinstance(ev.get("id"), int):
                fail(path, f"{where}: flow event missing integer 'id'",
                     errors)
            else:
                flows.setdefault(ev["id"], set()).add(ph)
            continue
        if not isinstance(ev.get("dur"), numbers.Real):
            fail(path, f"{where}: missing numeric 'dur'", errors)
        args = ev.get("args")
        if not isinstance(args, dict) or not isinstance(
                args.get("seq"), int) or not isinstance(
                args.get("parent_seq"), int):
            fail(path, f"{where}: args must carry integer "
                       "seq/parent_seq", errors)
            continue
        spans.append(ev)
    # Every flow arrow needs both ends, or the viewer draws nothing.
    for flow_id, phases in sorted(flows.items()):
        if phases != {"s", "f"}:
            fail(path, f"flow id={flow_id} has phases {sorted(phases)}, "
                       "want both 's' and 'f'", errors)
    # Complete spans are emitted in seq (start) order and nest strictly, so
    # a child's [ts, ts+dur] interval lies inside its parent's.
    by_seq = {}
    for ev in spans:
        by_seq[ev["args"]["seq"]] = ev
    for ev in by_seq.values():
        parent = by_seq.get(ev["args"].get("parent_seq"))
        if parent is None:
            continue
        slack = 1e-3  # clock granularity
        if ev["ts"] < parent["ts"] - slack or \
                ev["ts"] + ev["dur"] > parent["ts"] + parent["dur"] + slack:
            fail(path, f"span seq={ev['args']['seq']} not nested inside "
                       f"parent seq={ev['args']['parent_seq']}", errors)


def check_report(path, errors, require_activity=True,
                 require_op_profile=False, require_training=False,
                 require_flight_recorder=False, require_quality=False,
                 require_memory=False, require_serving=False,
                 require_profile=False):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(path, f"unreadable or invalid JSON: {e}", errors)
        return

    if not isinstance(doc, dict):
        fail(path, "top level must be an object", errors)
        return

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        fail(path, "missing non-empty string 'name'", errors)
    basename = os.path.basename(path)
    if isinstance(name, str) and basename != f"BENCH_{name}.json":
        fail(path, f"file name does not match report name '{name}'", errors)

    for key in ("created_unix", "wall_seconds"):
        if not isinstance(doc.get(key), numbers.Real):
            fail(path, f"missing numeric '{key}'", errors)

    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, dict):
        fail(path, "missing object 'fingerprint'", errors)
        fingerprint = {}
    if require_activity and "scale" not in fingerprint:
        fail(path, "fingerprint lacks 'scale'", errors)
    for k, v in fingerprint.items():
        if not isinstance(v, (str, numbers.Real)):
            fail(path, f"fingerprint['{k}'] must be string or number", errors)

    phases = doc.get("phases")
    if not isinstance(phases, list):
        fail(path, "missing list 'phases'", errors)
        phases = []
    for i, ph in enumerate(phases):
        where = f"phases[{i}]"
        if not isinstance(ph, dict):
            fail(path, f"{where}: not an object", errors)
            continue
        if not isinstance(ph.get("name"), str) or not ph.get("name"):
            fail(path, f"{where}: missing non-empty 'name'", errors)
        if not isinstance(ph.get("seconds"), numbers.Real):
            fail(path, f"{where}: missing numeric 'seconds'", errors)
        if not isinstance(ph.get("count"), int) or ph.get("count") < 1:
            fail(path, f"{where}: missing positive integer 'count'", errors)

    check_op_profile(doc, path, errors, required=require_op_profile)
    check_training(doc, path, errors, required=require_training)
    check_flight_recorder(doc, path, errors,
                          required=require_flight_recorder)
    check_quality(doc, path, errors, required=require_quality)
    check_memory(doc, path, errors, required=require_memory)
    check_serving(doc, path, errors, required=require_serving)
    check_profile(doc, path, errors, required=require_profile)
    check_slo(doc, path, errors)

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(path, "missing object 'metrics'", errors)
        return

    def int_value(item, where):
        if not isinstance(item.get("value"), int):
            fail(path, f"{where}: counter 'value' must be an integer", errors)

    def num_value(item, where):
        if not isinstance(item.get("value"), numbers.Real):
            fail(path, f"{where}: gauge 'value' must be a number", errors)

    def hist_value(item, where):
        for field in HIST_FIELDS:
            if not isinstance(item.get(field), numbers.Real):
                fail(path, f"{where}: histogram missing numeric '{field}'",
                     errors)

    counters = check_metric_list(metrics, "counters", int_value, path, errors)
    gauges = check_metric_list(metrics, "gauges", num_value, path, errors)
    hists = check_metric_list(metrics, "histograms", hist_value, path, errors)

    if require_activity:
        total = len(counters) + len(gauges) + len(hists)
        if total < 5:
            fail(path, f"expected >= 5 named metrics, found {total}", errors)
        live_hists = [h for h in hists
                      if isinstance(h.get("count"), numbers.Real)
                      and h["count"] > 0]
        if not live_hists:
            fail(path, "no histogram with any observations "
                       "(need p50/p95/p99 from a live histogram)", errors)
        if not phases:
            fail(path, "no phases recorded", errors)


def run_bench(binary, workdir, with_trace=False):
    obs_dir = tempfile.mkdtemp(prefix="bench_obs_", dir=workdir or None)
    env = dict(os.environ)
    env.setdefault("TRMMA_BENCH_SCALE", "smoke")
    env.setdefault("TRMMA_BENCH_CITIES", "PT")
    env["TRMMA_OBS_DIR"] = obs_dir
    trace_file = None
    if with_trace:
        trace_file = os.path.join(obs_dir, "trace.json")
        env["TRMMA_TRACE_FILE"] = trace_file
    print(f"running {binary} (scale={env['TRMMA_BENCH_SCALE']}, "
          f"cities={env['TRMMA_BENCH_CITIES']}, obs dir {obs_dir})",
          flush=True)
    proc = subprocess.run([binary], env=env, cwd=workdir or None)
    if proc.returncode != 0:
        print(f"FAIL: {binary} exited with {proc.returncode}")
        return None
    reports = [os.path.join(obs_dir, f) for f in sorted(os.listdir(obs_dir))
               if f.startswith("BENCH_") and f.endswith(".json")]
    if not reports:
        print(f"FAIL: {binary} wrote no BENCH_*.json into {obs_dir}")
        return None
    if with_trace and not os.path.exists(trace_file):
        print(f"FAIL: {binary} wrote no trace file at {trace_file}")
        return None
    return reports, trace_file


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="BENCH_*.json files")
    parser.add_argument("--run", metavar="BINARY",
                        help="bench binary to execute before validating")
    parser.add_argument("--workdir", default=None,
                        help="working directory for --run")
    parser.add_argument("--trace", action="append", default=[],
                        metavar="FILE",
                        help="Chrome trace-event JSON file to validate")
    parser.add_argument("--run-trace", action="store_true",
                        help="with --run: enable TRMMA_TRACE_FILE and "
                             "validate the resulting trace")
    parser.add_argument("--require-op-profile", action="store_true",
                        help="fail if reports lack an 'op_profile' section")
    parser.add_argument("--require-training", action="store_true",
                        help="fail if reports lack a 'training' section")
    parser.add_argument("--require-flight-recorder", action="store_true",
                        help="fail if reports lack a 'flight_recorder' "
                             "section or show replay mismatches")
    parser.add_argument("--require-quality", action="store_true",
                        help="fail if reports lack a 'quality' section")
    parser.add_argument("--require-memory", action="store_true",
                        help="fail if reports lack a 'memory' section")
    parser.add_argument("--require-serving", action="store_true",
                        help="fail if reports lack a 'serving' section")
    parser.add_argument("--require-profile", action="store_true",
                        help="fail if reports lack a 'profile' section with "
                             "at least one CPU sample")
    args = parser.parse_args()

    files = list(args.files)
    traces = list(args.trace)
    if args.run:
        produced = run_bench(args.run, args.workdir,
                             with_trace=args.run_trace)
        if produced is None:
            return 1
        reports, trace_file = produced
        files.extend(reports)
        if trace_file:
            traces.append(trace_file)
    if not files and not traces:
        parser.error("no report files given (pass FILEs, --trace, or --run)")

    errors = []
    for path in files:
        check_report(path, errors,
                     require_op_profile=args.require_op_profile,
                     require_training=args.require_training,
                     require_flight_recorder=args.require_flight_recorder,
                     require_quality=args.require_quality,
                     require_memory=args.require_memory,
                     require_serving=args.require_serving,
                     require_profile=args.require_profile)
    for path in traces:
        check_chrome_trace(path, errors)
    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        return 1
    for path in files + traces:
        print(f"OK: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
