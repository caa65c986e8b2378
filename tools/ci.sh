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

echo "=== replay smoke: capture -> deterministic replay -> diff ==="
# Capture a live consolidation run, replay it, and require the replayed
# controller's action trace to match the live one byte for byte (the
# --phase=action projection strips the wall-clock header fields).
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=quiet --capture-out="${SMOKE_DIR}/live.fglbcap" \
  --trace-out="${SMOKE_DIR}/live.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" \
  --trace-out="${SMOKE_DIR}/replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/live.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/replay.jsonl" \
         --phase=action)
# Same byte-for-byte contract under an injected fault schedule.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-replica --duration=420 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/chaos.fglbcap" \
  --trace-out="${SMOKE_DIR}/chaos-live.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/chaos.fglbcap" \
  --trace-out="${SMOKE_DIR}/chaos-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos-live.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos-replay.jsonl" \
         --phase=action)
# The other consumers must at least run clean on a real capture.
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" --summary
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
# for byte. An unknown --phase name must be rejected, not ignored.
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
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload-replay.jsonl" \
         --phase=action)

echo "=== MRC smoke: window recomputation + OPT regret ==="
# A --mrc-opt-regret run must emit phase=mrc events tagged
# mode=recompute whose class profiles carry regret_vs_opt, pass the
# schema check, and — because the mrc spec rides in the FGLBCAP1
# header — replay to identical curves and diagnoses. dur_us is wall
# clock, so it is stripped before the mrc-phase diff; the action
# projection must match byte for byte as usual. (consolidation, not
# overload: overload sheds its way past the mrc phase.)
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
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//') \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc-replay.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//')
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc-replay.jsonl" \
         --phase=action)

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
# in the FGLBCAP1 header — replay byte-identically (action projection
# exactly, mrc modulo the wall-clock dur_us field).
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
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-replay.jsonl" \
         --phase=action)
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//') \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-replay.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//')
# Same contract with the tier itself failing and degrading mid-run.
"./${PREFIX}/tools/fglb_sim" --scenario=tier-fail --duration=450 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/tier-fail.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-fail.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-fail.jsonl" --check
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/tier-fail.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-fail-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-fail.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" \
         "${SMOKE_DIR}/tier-fail-replay.jsonl" --phase=action)
# A partial/nonsensical tier-field set on a phase=mrc event must be
# rejected by --check with a non-zero exit.
printf '%s\n' \
  '{"v":1,"seq":0,"mono_us":1,"phase":"mrc","t":0,"tier2_pages":64,"tier2_resident":128,"tier2_read_us":100}' \
  > "${SMOKE_DIR}/broken-tier.jsonl"
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/broken-tier.jsonl" \
  --check 2>/dev/null; then
  echo "fglb_tracecat accepted a malformed tier spec" >&2
  exit 1
fi

echo "=== survivability smoke: lossy stats channel + controller crash ==="
# chaos-net: reports cross a lossy transport. The trace must pass
# --check (which validates per-replica report_seq / stale_intervals
# continuity on the recovery events), surface report_lost counts in the
# summary, and — because the stats-channel spec rides in the FGLBCAP1
# header — replay byte-identically: actions exactly, the full trace
# modulo the wall-clock mono_us/dur_us fields.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-net --duration=600 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/net.fglbcap" \
  --trace-out="${SMOKE_DIR}/net.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" --summary \
  | grep -q 'report_lost'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/net.fglbcap" \
  --trace-out="${SMOKE_DIR}/net-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net-replay.jsonl" \
         --phase=action)
diff <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/net.jsonl") \
     <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/net-replay.jsonl")
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
diff <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/ctl.jsonl") \
     <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/ctl-replay.jsonl")
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
