#!/usr/bin/env bash
# Tier-1 CI: build + full test suite and end-to-end smokes, then rebuild
# the whole tree under ASan+UBSan and under TSan and rerun the whole
# suite in each, minus the tests labelled `soak` (the two-hour soak).
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc)"

echo "=== plain build + full tier-1 suite ==="
cmake -B "${PREFIX}" -S . >/dev/null
# Build from clean so every translation unit's warnings reach the log.
cmake --build "${PREFIX}" -j "${JOBS}" --clean-first 2>&1 \
  | tee "${PREFIX}/build.log"
# Keep the tree warning-clean: fail on any warning whose primary
# location is in the repo's own code. GCC 12's -Wrestrict false
# positives in std::string concatenation (json.cc, metrics_registry.cc)
# have their primary location under /usr/include and name repo files
# only on "inlined from" lines, so keying on the primary location lets
# them through.
OWN_WARNINGS="$(sed "s|^$(pwd)/||" "${PREFIX}/build.log" \
  | grep -E '^(\.\./)*(src|tools|tests|bench|examples)/[^:]*:[0-9]+(:[0-9]+)?: warning:' \
  || true)"
if [ -n "${OWN_WARNINGS}" ]; then
  echo "${OWN_WARNINGS}" >&2
  echo "the build warns in the repo's own code" >&2
  exit 1
fi
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo "=== observability smoke: fglb_sim trace -> fglb_tracecat ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=quiet --trace-out="${SMOKE_DIR}/trace.jsonl" \
  --metrics-out="${SMOKE_DIR}/metrics.json" >/dev/null
# --check exits non-zero on any malformed line, schema violation or
# sequence gap; the other invocations must at least not crash.
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/trace.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/trace.jsonl" \
  --phase=action >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/trace.jsonl" --summary
test -s "${SMOKE_DIR}/metrics.json"
# The trace carries no wall clock: the same invocation writes the same
# bytes.
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=quiet --trace-out="${SMOKE_DIR}/trace-again.jsonl" >/dev/null
cmp "${SMOKE_DIR}/trace.jsonl" "${SMOKE_DIR}/trace-again.jsonl"
# --check must reject hostile input with exit 1, not crash: a line of
# two million '[' (once unbounded recursion), a non-JSON number in the
# header, and a replica whose report sequence number goes backwards.
expect_check_rejects() {
  local rc=0
  "./${PREFIX}/tools/fglb_tracecat" "$1" --check 2>/dev/null || rc=$?
  if [ "${rc}" -ne 1 ]; then
    echo "fglb_tracecat --check on $(basename "$1") exited ${rc}, want 1" >&2
    exit 1
  fi
}
{ head -c 2000000 /dev/zero | tr '\0' '['; echo; } \
  > "${SMOKE_DIR}/deep.jsonl"
expect_check_rejects "${SMOKE_DIR}/deep.jsonl"
echo '{"v":1,"seq":nan,"phase":"sla"}' > "${SMOKE_DIR}/nan-seq.jsonl"
expect_check_rejects "${SMOKE_DIR}/nan-seq.jsonl"
printf '%s\n' \
  '{"v":1,"seq":0,"phase":"recovery","t":30,"why":"report_lost","replica":0,"report_seq":14,"stale_intervals":1,"conf":1}' \
  '{"v":1,"seq":1,"phase":"recovery","t":60,"why":"stats_resync","replica":0,"report_seq":3,"stale_intervals":1,"conf":1}' \
  > "${SMOKE_DIR}/report-seq.jsonl"
expect_check_rejects "${SMOKE_DIR}/report-seq.jsonl"

echo "=== chaos smoke: deterministic fault injection under trace ==="
# A chaos scenario run end to end: the injected crash/stats/migration
# faults must leave a trace that still passes the schema check, and the
# run itself must survive the churn.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-replica --duration=600 \
  --fault-seed=7 --log-level=quiet \
  --trace-out="${SMOKE_DIR}/chaos.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos.jsonl" \
  --phase=action >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos.jsonl" --summary

echo "=== replay smoke: capture -> deterministic replay -> cmp ==="
# Capture a live consolidation run, replay it, and require the replayed
# controller's whole decision trace to match the live one byte for
# byte.
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=info --capture-out="${SMOKE_DIR}/live.fglbcap" \
  --trace-out="${SMOKE_DIR}/live.jsonl" >/dev/null 2>"${SMOKE_DIR}/live.log"
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" \
  --trace-out="${SMOKE_DIR}/replay.jsonl"
cmp "${SMOKE_DIR}/live.jsonl" "${SMOKE_DIR}/replay.jsonl"
# Same byte-for-byte contract under an injected fault schedule.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-replica --duration=420 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/chaos.fglbcap" \
  --trace-out="${SMOKE_DIR}/chaos-live.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/chaos.fglbcap" \
  --trace-out="${SMOKE_DIR}/chaos-replay.jsonl"
cmp "${SMOKE_DIR}/chaos-live.jsonl" "${SMOKE_DIR}/chaos-replay.jsonl"
# The reader must see exactly the streams the writer recorded: the
# summary's arrival, execution and page-access counts equal the ones
# fglb_sim logs as it closes the capture.
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" --summary \
  | tee "${SMOKE_DIR}/summary.txt"
written="$(sed -n 's/.*capture: \([0-9]*\) arrivals, \([0-9]*\) executions, \([0-9]*\) accesses,.*/\1 \2 \3/p' \
  "${SMOKE_DIR}/live.log")"
read_back="$(sed -n 's/^ *streams *\([0-9]*\) arrivals, \([0-9]*\) executions, \([0-9]*\) page accesses$/\1 \2 \3/p' \
  "${SMOKE_DIR}/summary.txt")"
if [ -z "${written}" ] || [ "${written}" != "${read_back}" ]; then
  echo "capture streams written '${written}', read back '${read_back}'" >&2
  exit 1
fi
# The other consumers must at least run clean on a real capture.
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" --what-if
# Bad what-if bounds are usage errors (exit 2), not aborts: a NaN window
# start once reached the simulator's schedule as an event time, and a
# negative quota wrapped to 2^64-5.
for bad in --window-start=nan --quota-pages=-5; do
  rc=0
  "./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" --what-if \
    "${bad}" >/dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "fglb_replay --what-if ${bad} exited ${rc}, want 2" >&2
    exit 1
  fi
done

echo "=== overload smoke: admission control + capture/replay ==="
# The overload scenario turns admission on automatically; its trace must
# carry phase=admission events, pass the schema check, and replay byte
# for byte (the whole trace). An unknown --phase name must be rejected,
# not ignored.
"./${PREFIX}/tools/fglb_sim" --scenario=overload --duration=420 \
  --log-level=quiet --capture-out="${SMOKE_DIR}/overload.fglbcap" \
  --trace-out="${SMOKE_DIR}/overload.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" --check
test -n "$("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" \
  --phase=admission)"
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" --summary \
  | grep -q '^admission'
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" \
  --phase=bogus 2>/dev/null; then
  echo "fglb_tracecat accepted an unknown --phase name" >&2
  exit 1
fi
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/overload.fglbcap" \
  --trace-out="${SMOKE_DIR}/overload-replay.jsonl"
cmp "${SMOKE_DIR}/overload.jsonl" "${SMOKE_DIR}/overload-replay.jsonl"

echo "=== MRC smoke: window recomputation + OPT regret ==="
# A --mrc-opt-regret run must emit phase=mrc events tagged
# mode=recompute whose class profiles carry regret_vs_opt, pass the
# schema check, and — because the mrc spec rides in the FGLBCAP1
# header — replay to identical curves, diagnoses and actions: the whole
# trace matches byte for byte. (consolidation, not overload: overload
# sheds its way past the mrc phase.)
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=quiet --mrc-opt-regret \
  --capture-out="${SMOKE_DIR}/mrc.fglbcap" \
  --trace-out="${SMOKE_DIR}/mrc.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" --phase=mrc \
  | grep -q '"mode":"recompute"'
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" --phase=mrc \
  | grep -q 'regret_vs_opt'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/mrc.fglbcap" \
  --trace-out="${SMOKE_DIR}/mrc-replay.jsonl"
cmp "${SMOKE_DIR}/mrc.jsonl" "${SMOKE_DIR}/mrc-replay.jsonl"

echo "=== spans smoke: sampled query timelines + replay byte-identity ==="
# A span-traced overload run (admission + shed paths exercise every
# segment family) must export valid Chrome trace_event JSON that the
# --spans summarizer accepts, and the span spec captured in FGLBCAP1
# must make the replayed run reproduce the span file byte for byte.
"./${PREFIX}/tools/fglb_sim" --scenario=overload --duration=420 \
  --log-level=quiet --span-sample=16 \
  --spans-out="${SMOKE_DIR}/spans.json" \
  --capture-out="${SMOKE_DIR}/spans.fglbcap" >/dev/null
test -s "${SMOKE_DIR}/spans.json"
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/spans.json" --spans \
  | grep -q '^end_to_end'
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/spans.json" --spans \
  | grep -q 'sampled query spans'
# Malformed span JSON must be rejected with a non-zero exit.
echo '[{"ph":"X"' > "${SMOKE_DIR}/broken-spans.json"
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/broken-spans.json" \
  --spans 2>/dev/null; then
  echo "fglb_tracecat accepted malformed span JSON" >&2
  exit 1
fi
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/spans.fglbcap" \
  --spans-out="${SMOKE_DIR}/spans-replay.json"
cmp "${SMOKE_DIR}/spans.json" "${SMOKE_DIR}/spans-replay.json"

echo "=== tiered smoke: second tier, demote rung, replay byte-identity ==="
# A tier-thrash run must answer the squeeze with the demote rung
# instead of a migration, stamp tier fields on its phase=mrc events,
# count the demotes in the summary, and — because the tier spec rides
# in the FGLBCAP1 header — replay byte-identically (the whole trace).
"./${PREFIX}/tools/fglb_sim" --scenario=tier-thrash --duration=450 \
  --log-level=quiet --capture-out="${SMOKE_DIR}/tier.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
  --phase=action | grep -q '\[demote\]'
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
  --phase=mrc | grep -q '"tier2_pages"'
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" --summary \
  | grep -q 'demote'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/tier.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-replay.jsonl"
cmp "${SMOKE_DIR}/tier.jsonl" "${SMOKE_DIR}/tier-replay.jsonl"
# Same contract with the tier itself failing and degrading mid-run.
"./${PREFIX}/tools/fglb_sim" --scenario=tier-fail --duration=450 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/tier-fail.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-fail.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-fail.jsonl" --check
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/tier-fail.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-fail-replay.jsonl"
cmp "${SMOKE_DIR}/tier-fail.jsonl" "${SMOKE_DIR}/tier-fail-replay.jsonl"
# A partial/nonsensical tier-field set on a phase=mrc event must be
# rejected by --check with exit 1.
printf '%s\n' \
  '{"v":1,"seq":0,"phase":"mrc","t":0,"tier2_pages":64,"tier2_resident":128,"tier2_read_us":100}' \
  > "${SMOKE_DIR}/broken-tier.jsonl"
expect_check_rejects "${SMOKE_DIR}/broken-tier.jsonl"

echo "=== survivability smoke: lossy stats channel + controller crash ==="
# chaos-net: reports cross a lossy transport. The trace must pass
# --check (which validates per-replica report_seq / stale_intervals
# continuity on the recovery events), surface report_lost counts in the
# summary, and — because the stats-channel spec rides in the FGLBCAP1
# header — replay byte-identically, the whole trace.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-net --duration=600 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/net.fglbcap" \
  --trace-out="${SMOKE_DIR}/net.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" --summary \
  | grep -q 'report_lost'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/net.fglbcap" \
  --trace-out="${SMOKE_DIR}/net-replay.jsonl"
cmp "${SMOKE_DIR}/net.jsonl" "${SMOKE_DIR}/net-replay.jsonl"
# chaos-ctl: a controller crash + restart lands on top of the lossy
# window. The restart must restore from the FGLBCKPT1 blob — a
# why=restored recovery event, never bad_ckpt — and the whole run
# (crash, restore, everything after) must replay byte for byte.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-ctl --duration=600 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/ctl.fglbcap" \
  --trace-out="${SMOKE_DIR}/ctl.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/ctl.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/ctl.jsonl" \
  --phase=recovery | grep -q '"why":"restored"'
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/ctl.jsonl" \
  --phase=recovery | grep -q '"why":"bad_ckpt"'; then
  echo "controller restored from a corrupt checkpoint" >&2
  exit 1
fi
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/ctl.fglbcap" \
  --trace-out="${SMOKE_DIR}/ctl-replay.jsonl"
cmp "${SMOKE_DIR}/ctl.jsonl" "${SMOKE_DIR}/ctl-replay.jsonl"
# The recovery bench enforces its own shape: exits non-zero if guarded
# recovery drifts past 1.5x lossless or the unguarded arm stops
# flapping.
cmake --build "${PREFIX}" -j "${JOBS}" --target bench_recovery
"./${PREFIX}/bench/bench_recovery" "${SMOKE_DIR}/recovery.json" >/dev/null
grep -q '"flap_ratio_unguarded"' "${SMOKE_DIR}/recovery.json"

echo "=== DES kernel smoke: calendar queue vs legacy heap ==="
# Small event budgets, but the full old-vs-new comparison: the run
# exits non-zero if the calendar queue is slower than the heap on the
# hold model, and the JSON must carry the kernel's headline fields.
cmake --build "${PREFIX}" -j "${JOBS}" --target bench_des_kernel
"./${PREFIX}/bench/bench_des_kernel" "${SMOKE_DIR}/des.json" smoke
grep -q '"events_per_sec_calendar"' "${SMOKE_DIR}/des.json"
grep -q '"accesses_per_sec"' "${SMOKE_DIR}/des.json"
grep -q '"sim_wall_ratio_100x"' "${SMOKE_DIR}/des.json"

echo "=== ASan+UBSan build + whole suite (soak excluded) ==="
cmake -B "${PREFIX}-asan" -S . -DFGLB_SANITIZE=address-undefined >/dev/null
cmake --build "${PREFIX}-asan" -j "${JOBS}"
ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" -LE soak
"./${PREFIX}-asan/tools/fglb_sim" --scenario=overload --duration=180 \
  --log-level=quiet --trace-out="${SMOKE_DIR}/overload-asan.jsonl" >/dev/null
"./${PREFIX}-asan/tools/fglb_tracecat" "${SMOKE_DIR}/overload-asan.jsonl" \
  --check

echo "=== TSan build + whole suite (soak excluded) ==="
cmake -B "${PREFIX}-tsan" -S . -DFGLB_SANITIZE=thread >/dev/null
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" -LE soak

echo "CI OK"
