#!/usr/bin/env bash
# Local CI gate: formatting, lints on the experiment-pipeline crates, and
# the tier-1 test surface (ROADMAP.md). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (check, whole workspace) =="
cargo fmt --check --all

echo "== lockfile gate (path dependencies only) =="
# Every dependency is vendored or in-tree: a `source =` line in either
# lockfile means a registry or git package, direct or transitive, which
# can never build here. `--locked` first proves the committed lockfiles
# match the manifests, so a dependency added without one fails too.
cargo metadata --locked --format-version 1 > /dev/null
cargo metadata --locked --format-version 1 --manifest-path perfbench/Cargo.toml > /dev/null
if grep -n '^source = ' Cargo.lock perfbench/Cargo.lock; then
    echo "ERROR: lockfile names a registry/git source; vendor it under vendor/" >&2
    exit 1
fi
echo "lockfiles ok (path dependencies only)"

echo "== mkss-lint (project invariants, hard gate) =="
# Full run emitting the machine-readable report, whose shape is then
# validated through an independent JSON parser.
cargo run --release -q -p mkss-lint -- --format json --out lint-report.json
python3 - lint-report.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 2, f"unknown report version {doc['version']}"
assert isinstance(doc["findings"], list), "findings must be a list"
for f in doc["findings"]:
    for key in ("path", "line", "code", "rule", "message"):
        assert key in f, f"finding missing {key}: {f}"
    assert f["code"].startswith("MKSS-L"), f["code"]
counts = doc["counts"]
for key in ("findings", "suppressed", "files"):
    assert isinstance(counts.get(key), int), f"counts missing {key}"
assert counts["findings"] == len(doc["findings"])
assert counts["files"] > 50, f"suspiciously few files linted: {counts['files']}"
print(f"lint report ok: {counts['findings']} findings, "
      f"{counts['suppressed']} suppressed, {counts['files']} files")
PY

echo "== mkss-lint smoke (must reject a known-bad file) =="
lint_tmp="$(mktemp -d)"
mkdir -p "$lint_tmp/crates/core/src"
printf 'pub fn f(a: &mut f64) { *a += 1.5; }\n' \
    > "$lint_tmp/crates/core/src/bad.rs"
if cargo run --release -q -p mkss-lint -- --root "$lint_tmp" \
    "$lint_tmp/crates/core/src/bad.rs" 2>/dev/null; then
    echo "ERROR: mkss-lint exited 0 on a file with a known violation" >&2
    rm -rf "$lint_tmp"
    exit 1
fi
rm -rf "$lint_tmp"
echo "bad-file smoke ok (nonzero exit as expected)"

echo "== clippy (deny warnings, whole workspace) =="
# The library crates opt into the `[workspace.lints]` tables (no panics,
# documented API, closed enums by `#[expect]` only); `clippy.toml` bans
# nondeterministic collections and clock reads everywhere it lints.
cargo clippy -p mkss-core -p mkss-workload -p mkss-obs -p mkss-bench \
    -p mkss-cli -p mkss-sim -p mkss-policies -p mkss-analysis \
    -p mkss-serve -p mkss-top -p mkss-lint -p mkss --all-targets -- -D warnings

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== examples build =="
cargo build --examples

echo "== bench smoke (each benchmark runs once) =="
cargo bench -p mkss-bench --benches -- --test

echo "== metrics export smoke (mkss-cli compare --metrics-out) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p mkss-cli -- generate --util 0.4 --seed 11 \
    > "$tmpdir/set.json"
cargo run --release -q -p mkss-cli -- compare "$tmpdir/set.json" \
    --horizon-ms 200 --metrics-out "$tmpdir/metrics.json" > /dev/null
python3 - "$tmpdir/metrics.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
missing = [k for k in ("meta", "counters", "histograms", "stages") if k not in doc]
assert not missing, f"metrics document missing top-level keys: {missing}"
for key in ("jobs_released", "backups_canceled", "backups_postponed",
            "optional_executed", "faults_injected"):
    assert key in doc["counters"], f"missing counter {key}"
assert doc["counters"]["jobs_released"] > 0, "compare smoke released no jobs"
print("metrics document ok:", ", ".join(sorted(doc)))
PY

echo "== trace smoke (flight recorder: deterministic Chrome-trace export) =="
# Two captures of the same workload with different worker counts must be
# byte-identical (one flight recorder per policy, export a pure function
# of the buffers), and the file must be well-formed Chrome Trace JSON.
cargo run --release -q -p mkss-cli -- compare "$tmpdir/set.json" \
    --horizon-ms 200 --jobs 1 --trace-out "$tmpdir/trace1.json" > /dev/null
cargo run --release -q -p mkss-cli -- compare "$tmpdir/set.json" \
    --horizon-ms 200 --jobs 4 --trace-out "$tmpdir/trace2.json" > /dev/null
cmp "$tmpdir/trace1.json" "$tmpdir/trace2.json" || {
    echo "ERROR: trace export differs across --jobs values" >&2
    exit 1
}
python3 - "$tmpdir/trace1.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "trace has no events"
phases = {e["ph"] for e in events}
assert {"M", "i", "b", "e", "X"} <= phases, f"missing phase kinds: {phases}"
# Execution slices: one processor runs one copy at a time, so no two
# "X" slices may overlap on one (pid, tid) track.
slices = {}
for e in events:
    if e["ph"] == "X":
        assert e["dur"] > 0, f"empty execution slice: {e}"
        slices.setdefault((e["pid"], e["tid"]), []).append((e["ts"], e["ts"] + e["dur"]))
for track, spans in slices.items():
    spans.sort()
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end, f"overlapping slices on {track}: ends {end}, next starts {start}"
for e in events:
    assert "pid" in e, f"event missing pid: {e}"
    if e["ph"] != "M":
        # Timed events always carry a thread and a timestamp; "M"
        # metadata names a process (pid only) or a thread (pid+tid).
        assert "tid" in e, f"timed event missing tid: {e}"
        assert "ts" in e, f"timed event missing ts: {e}"
opens = sum(1 for e in events if e["ph"] == "b")
closes = sum(1 for e in events if e["ph"] == "e")
assert opens == closes, f"unbalanced async spans: {opens} b vs {closes} e"
tracks = {e["args"]["name"] for e in events
          if e["ph"] == "M" and e["name"] == "process_name"}
assert len(tracks) > 1, f"expected one track per policy, got {tracks}"
print(f"chrome trace ok: {len(events)} events, {opens} spans, "
      f"{sum(map(len, slices.values()))} slices, {len(tracks)} policy tracks")
PY
# The hot path must still allocate nothing per event, with no recorder
# or a registry handle attached.
cargo test --release -q -p mkss-sim --test zero_alloc

echo "== serve smoke (daemon end-to-end: loadgen differential + clean shutdown) =="
# Start the daemon, drive it with concurrent clients re-deriving every
# response in-process (--differential fails on any byte mismatch), ask it
# to drain, and require a clean exit.
serve_sock="$tmpdir/serve.sock"
cargo run --release -q -p mkss-cli -- serve --socket "$serve_sock" \
    > "$tmpdir/serve-stdout.txt" 2> "$tmpdir/serve-stderr.txt" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.1
done
if [ ! -S "$serve_sock" ]; then
    echo "ERROR: daemon socket $serve_sock never appeared" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# One simulate with `"trace": {"last": N}` through the daemon: the
# response line must embed a bounded, well-formed event timeline.
python3 - "$serve_sock" <<'PY'
import json, socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
req = {"id": 1, "op": "simulate",
       "task_set": {"tasks": [
           {"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4},
           {"period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2}]},
       "policy": "selective", "horizon_ms": 100, "trace": {"last": 32}}
s.sendall((json.dumps(req) + "\n").encode())
line = b""
while not line.endswith(b"\n"):
    chunk = s.recv(65536)
    assert chunk, "daemon closed the connection mid-response"
    line += chunk
s.close()
resp = json.loads(line)
assert resp["ok"], resp
trace = resp["result"]["trace"]
assert trace["capacity"] == 32, trace["capacity"]
assert 0 < len(trace["events"]) <= 32, len(trace["events"])
assert trace["recorded"] == len(trace["events"]) + trace["dropped"]
for e in trace["events"]:
    for key in ("t", "seq", "kind", "task", "job", "copy", "payload"):
        assert key in e, f"trace event missing {key}: {e}"
seqs = [e["seq"] for e in trace["events"]]
assert seqs == sorted(seqs), "trace events out of sequence order"
print(f"serve trace ok: {len(trace['events'])} events embedded, "
      f"{trace['dropped']} dropped by the ring")
PY
cargo run --release -q -p mkss-bench --bin loadgen -- \
    --socket "$serve_sock" --clients 4 --requests 16 --differential --shutdown
wait "$serve_pid"
grep -q "shut down cleanly" "$tmpdir/serve-stdout.txt" || {
    echo "ERROR: daemon did not report a clean shutdown" >&2
    cat "$tmpdir/serve-stdout.txt" "$tmpdir/serve-stderr.txt" >&2
    exit 1
}
grep -q "serve_requests" "$tmpdir/serve-stdout.txt" || {
    echo "ERROR: daemon totals table missing serve counters" >&2
    exit 1
}
echo "serve smoke ok (64 differential responses, clean drain)"

echo "== mkss-top smoke (headless dashboard vs metrics op, hard gate) =="
# Boot a fresh daemon, hammer it with loadgen, capture a short plain
# dashboard session, then fetch the metrics op and require the final
# frame's counter totals to match the daemon's own document
# counter-for-counter — the live path must not drop or invent events.
top_sock="$tmpdir/top.sock"
cargo run --release -q -p mkss-cli -- serve --socket "$top_sock" \
    > "$tmpdir/top-serve-stdout.txt" 2> "$tmpdir/top-serve-stderr.txt" &
top_serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$top_sock" ] && break
    sleep 0.1
done
if [ ! -S "$top_sock" ]; then
    echo "ERROR: daemon socket $top_sock never appeared" >&2
    kill "$top_serve_pid" 2>/dev/null || true
    exit 1
fi
cargo run --release -q -p mkss-bench --bin loadgen -- \
    --socket "$top_sock" --clients 4 --requests 8
cargo run --release -q -p mkss-cli -- top --socket "$top_sock" \
    --frames 3 --plain --interval-ms 50 > "$tmpdir/top.txt"
cargo run --release -q -p mkss-cli -- metrics --socket "$top_sock" --json \
    > "$tmpdir/top-metrics.json"
python3 - "$tmpdir/top.txt" "$tmpdir/top-metrics.json" <<'PY'
import json, sys
frames = open(sys.argv[1]).read()
doc = json.load(open(sys.argv[2]))
assert "watched 3 frames from daemon" in frames, frames.splitlines()[-1:]
# Counter rows of the *final* frame: after the last "counters:" header,
# up to its "histograms:" header. Columns: name, total, +delta, rate.
section = frames.rsplit("counters:", 1)[1].split("histograms:", 1)[0]
totals = {}
for line in section.strip().splitlines():
    name, total = line.split()[:2]
    totals[name] = int(total)
assert totals, "no counter rows parsed from the final frame"
daemon = doc["counters"]
assert set(totals) == set(daemon), (
    f"counter catalogs diverge: {set(totals) ^ set(daemon)}")
diverged = {k: (totals[k], daemon[k]) for k in daemon if totals[k] != daemon[k]}
assert not diverged, f"dashboard diverged from the metrics op: {diverged}"
assert daemon["serve_op_simulate"] > 0, "loadgen traffic missing from counters"
assert daemon["serve_watches"] == 1, "the top session should count one watch"
print(f"dashboard consistent: {len(daemon)} counters, "
      f"{daemon['serve_requests']} pooled requests")
PY
# An unbounded watcher must be closed by the shutdown drain: start one in
# the background, drain the daemon, and require the watcher to exit too.
cargo run --release -q -p mkss-cli -- top --socket "$top_sock" \
    --plain --interval-ms 200 > "$tmpdir/top-unbounded.txt" &
top_watch_pid=$!
sleep 1
cargo run --release -q -p mkss-bench --bin loadgen -- \
    --socket "$top_sock" --clients 1 --requests 1 --shutdown
wait "$top_serve_pid"
wait "$top_watch_pid"
grep -q "watched .* frames from daemon" "$tmpdir/top-unbounded.txt" || {
    echo "ERROR: unbounded watcher did not exit cleanly on daemon drain" >&2
    cat "$tmpdir/top-unbounded.txt" >&2
    exit 1
}
grep -q "shut down cleanly" "$tmpdir/top-serve-stdout.txt" || {
    echo "ERROR: daemon with an attached watcher did not drain cleanly" >&2
    cat "$tmpdir/top-serve-stdout.txt" "$tmpdir/top-serve-stderr.txt" >&2
    exit 1
}
echo "mkss-top smoke ok (frame totals match the metrics op, drain closes watchers)"

echo "== sim_bench drift check (hard gate) =="
# A >25% drop below the tracked BENCH_sim.json baseline fails CI, for
# each of the engine's fresh and reuse paths and for the generate path
# (Fig. 6 bucket attempts per second: the R-pattern rejection path). Both
# sides are best-of measurements: sim_bench keeps the best of its reps,
# and the gate keeps each path's best over up to 3 attempts, so a
# transient load spike on a shared machine has to survive every attempt
# before it can fail the build. Escape hatch for machines that stay
# saturated (or while intentionally re-baselining):
#   MKSS_BENCH_ALLOW_DRIFT=1 scripts/ci.sh
# downgrades the failure back to a warning. To re-baseline after a real,
# intended performance change, record a fresh full run on an otherwise
# idle machine and commit it:
#   cargo run --release -p mkss-bench --bin sim_bench -- --out BENCH_sim.json
drift_status=1
for attempt in 1 2 3; do
    cargo run --release -q -p mkss-bench --bin sim_bench -- \
        --out "$tmpdir/bench$attempt.json" 2>/dev/null
    if python3 - BENCH_sim.json "$tmpdir"/bench*.json <<'PY'
import json, sys
baseline = json.load(open(sys.argv[1]))
attempts = [json.load(open(p)) for p in sys.argv[2:]]
ok = True
for path, key, unit in (("fresh", "jobs_per_second", "jobs/s"),
                        ("reuse", "jobs_per_second", "jobs/s"),
                        ("generate", "attempts_per_second", "attempts/s")):
    measured = max(a[path][key] for a in attempts)
    reference = baseline[path][key]
    if measured < 0.75 * reference:
        ok = False
        print(f"{path}: best {measured:,.0f} {unit} is >25% below the "
              f"BENCH_sim.json baseline {reference:,.0f} {unit}")
    else:
        print(f"{path}: {measured:,.0f} {unit} (baseline {reference:,.0f}: ok)")
sys.exit(0 if ok else 1)
PY
    then
        drift_status=0
        break
    fi
    echo "drift check attempt $attempt/3 below threshold, retrying"
done
if [ "$drift_status" -ne 0 ]; then
    if [ "${MKSS_BENCH_ALLOW_DRIFT:-0}" = "1" ]; then
        echo "WARNING: sim_bench drift gate failed (allowed by MKSS_BENCH_ALLOW_DRIFT=1)"
    else
        echo "ERROR: sim_bench drift gate failed on every attempt; see scripts/ci.sh" \
             "for the MKSS_BENCH_ALLOW_DRIFT escape hatch and re-baseline procedure" >&2
        exit 1
    fi
fi

echo "CI gate passed."
