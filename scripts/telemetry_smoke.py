#!/usr/bin/env python3
"""End-to-end smoke test for the live telemetry service.

Launches a bench binary with TRMMA_HTTP_PORT=0 (ephemeral port) plus the
usual smoke-scale environment, discovers the bound port from the bench's
"telemetry: serving on 127.0.0.1:<port>" stdout line, and while the bench is
still running:

  - GETs /healthz and expects HTTP 200 "ok",
  - GETs /metrics and validates the body as Prometheus text exposition
    0.0.4: every line is a comment or a `name{labels} value` sample, HELP/
    TYPE headers appear exactly once per family, and the scrape carries the
    memory (mem_rss_bytes) and lock (lock_acquisitions) gauges,
  - when an SLO file is passed (--slo), expects slo_ok gauges in the scrape,
  - GETs /debug/stacks and expects a symbolized dump that includes the
    registered telemetry thread,
  - GETs an unknown path and expects a 404 that lists the real endpoints.

Smoke-scale benches finish in milliseconds — faster than the first scrape
round-trip — so the bench is launched with TRMMA_HTTP_LINGER_MS set: at exit
it holds the exporter open until this harness GETs /quitz (always sent, even
when a scrape fails, so the bench never waits out the full linger).

After the bench exits it validates the BENCH_*.json it wrote via
check_bench_json with --require-memory, so the report-side memory section is
exercised by the same run. Stdlib only, like the other script harnesses.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request

PORT_RE = re.compile(r"telemetry: serving on 127\.0\.0\.1:(\d+)")
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+$")
# OpenMetrics exemplar suffix on a sample line:  ... value # {labels} value
EXEMPLAR_RE = re.compile(r" # \{[^}]*\} [^ ]+$")
HEADER_RE = re.compile(
    r"^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram))$")


def http_get(port, path, timeout=10):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode("utf-8", errors="replace")


def validate_exposition(body, errors, expect_slo=False):
    if not body.endswith("\n"):
        errors.append("/metrics body does not end with a newline")
    seen_help = set()
    seen_type = set()
    families = set()
    for lineno, line in enumerate(body.splitlines(), 1):
        if not line:
            errors.append(f"/metrics line {lineno}: empty line")
            continue
        if line.startswith("#"):
            m = HEADER_RE.match(line)
            if not m:
                errors.append(f"/metrics line {lineno}: bad comment: {line!r}")
                continue
            kind, name = line.split()[1], line.split()[2]
            seen = seen_help if kind == "HELP" else seen_type
            if name in seen:
                errors.append(f"/metrics line {lineno}: duplicate # {kind} "
                              f"for family '{name}'")
            seen.add(name)
            continue
        # p99 lines may carry an OpenMetrics exemplar (trace id of the worst
        # recent observation); validate then strip it before the sample check.
        exemplar = EXEMPLAR_RE.search(line)
        if exemplar:
            exemplar_value = exemplar.group(0).rsplit(" ", 1)[1]
            try:
                float(exemplar_value)
            except ValueError:
                errors.append(f"/metrics line {lineno}: non-numeric exemplar "
                              f"value {exemplar_value!r}")
            if 'trace_id="' not in exemplar.group(0):
                errors.append(f"/metrics line {lineno}: exemplar lacks a "
                              f"trace_id label: {line!r}")
            line = line[:exemplar.start()]
        if not SAMPLE_RE.match(line):
            errors.append(f"/metrics line {lineno}: bad sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        families.add(name)
        value = line.rsplit(" ", 1)[1]
        try:
            float(value)
        except ValueError:
            errors.append(f"/metrics line {lineno}: non-numeric value "
                          f"{value!r}")
    for must in ("mem_rss_bytes", "mem_rss_peak_bytes", "lock_acquisitions"):
        if must not in families:
            errors.append(f"/metrics: expected family '{must}' in scrape")
    if expect_slo and not any(f.startswith("slo_ok") for f in families):
        errors.append("/metrics: TRMMA_SLO_FILE was set but no slo_ok gauge "
                      "appeared")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary", help="bench binary to launch")
    parser.add_argument("--slo", default=None,
                        help="SLO objectives JSON to install via "
                             "TRMMA_SLO_FILE")
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--checker", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "check_bench_json.py"))
    args = parser.parse_args()

    obs_dir = tempfile.mkdtemp(prefix="telemetry_smoke_",
                               dir=args.workdir or None)
    env = dict(os.environ)
    env.setdefault("TRMMA_BENCH_SCALE", "smoke")
    env.setdefault("TRMMA_BENCH_CITIES", "PT")
    env["TRMMA_OBS_DIR"] = obs_dir
    env["TRMMA_HTTP_PORT"] = "0"
    # Smoke-scale benches can finish before the first scrape lands; the
    # linger holds the exporter open until we GET /quitz below.
    env["TRMMA_HTTP_LINGER_MS"] = "60000"
    env.pop("TRMMA_MEM_STATS", None)  # default-on memory accounting
    if args.slo:
        env["TRMMA_SLO_FILE"] = os.path.abspath(args.slo)

    binary = os.path.abspath(args.binary)
    print(f"launching {binary} with TRMMA_HTTP_PORT=0", flush=True)
    proc = subprocess.Popen([binary], env=env, cwd=args.workdir or None,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    errors = []
    port = None
    try:
        # The telemetry line is printed (and flushed) by BenchRun's
        # constructor, i.e. before any dataset work — the scrape window is
        # the whole bench run.
        for line in proc.stdout:
            sys.stdout.write(line)
            m = PORT_RE.search(line)
            if m:
                port = int(m.group(1))
                break
        if port is None:
            errors.append("bench never printed the telemetry port line")
        else:
            print(f"scraping 127.0.0.1:{port}", flush=True)
            try:
                status, _, body = http_get(port, "/healthz")
                if status != 200 or "ok" not in body:
                    errors.append(f"/healthz: status={status} body={body!r}")
                status, ctype, body = http_get(port, "/metrics")
                if status != 200:
                    errors.append(f"/metrics: status={status}")
                if "version=0.0.4" not in ctype:
                    errors.append(
                        f"/metrics: unexpected content type {ctype!r}")
                validate_exposition(body, errors, expect_slo=bool(args.slo))
                status, _, body = http_get(port, "/statusz")
                if status != 200 or '"memory":' not in body:
                    errors.append(f"/statusz: status={status} or missing "
                                  "memory section")
                status, _, body = http_get(port, "/debug/stacks")
                if status != 200 or "thread " not in body:
                    errors.append(f"/debug/stacks: status={status} "
                                  f"body={body[:120]!r}")
                if "telemetry.http" not in body:
                    errors.append("/debug/stacks: serving thread not in dump")
                try:
                    status, _, body = http_get(port, "/no/such/endpoint")
                    errors.append(f"unknown path returned {status}, not 404")
                except urllib.error.HTTPError as e:
                    body = e.read().decode("utf-8", errors="replace")
                    if e.code != 404:
                        errors.append(f"unknown path: status={e.code}")
                    if "/debug/stacks" not in body or "/metrics" not in body:
                        errors.append("404 body does not list the available "
                                      f"endpoints: {body[:200]!r}")
            except OSError as e:
                errors.append(f"scrape failed: {e}")
            finally:
                # Release the linger so the bench can exit.
                try:
                    status, _, _ = http_get(port, "/quitz")
                    if status != 200:
                        errors.append(f"/quitz: status={status}")
                except OSError as e:
                    errors.append(f"/quitz failed: {e}")
    finally:
        # Drain the rest of stdout so the bench never blocks on the pipe.
        for line in proc.stdout:
            sys.stdout.write(line)
        proc.wait()

    if proc.returncode != 0:
        errors.append(f"bench exited with {proc.returncode}")

    reports = [os.path.join(obs_dir, f) for f in sorted(os.listdir(obs_dir))
               if f.startswith("BENCH_") and f.endswith(".json")]
    if not reports:
        errors.append(f"bench wrote no BENCH_*.json into {obs_dir}")
    else:
        check = subprocess.run(
            [sys.executable, args.checker, "--require-memory"] + reports)
        if check.returncode != 0:
            errors.append("check_bench_json --require-memory failed")

    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        return 1
    print("OK: telemetry smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
