#!/usr/bin/env python3
"""End-to-end benchmark of the Bingo serving stack.

Usage, from the root of a checkout:

  python3 bench/e2e/run.py --workload int_bias|float_bias --seed N --seconds S \
      --trace 0|1 [--size full|tiny]

Builds bench/e2e (library sources of this checkout + e2e_bench.cc) under
.bench_build/e2e, runs the workload in a fresh process with the fixed
parameters of bench/e2e/config.json, and prints as its last line

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A traced run first repeats the untraced run
with the same seed, so the difference between the two gives the tracing
overhead. Lines before the last carry provenance, sample counts and the
serve ladder. Exits 1, without a result, if the build fails; exits 1 after
the result if any output check failed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f'e2e: {message}', file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = root / '.bench_build' / 'e2e'
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / 'CMakeCache.txt').exists():
        steps.append(['cmake', '-S', str(BENCH_DIR), '-B', str(build_dir),
                      '-DCMAKE_BUILD_TYPE=Release'])
    steps.append(['cmake', '--build', str(build_dir), '-j', jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail('build failed: ' + ' '.join(cmd))
    binary = build_dir / 'e2e_bench'
    if not binary.exists():
        fail('build produced no e2e_bench')
    return build_dir, binary


def provenance(root, build_dir, seed):
    cache = (build_dir / 'CMakeCache.txt').read_text(errors='replace')

    def cache_value(key):
        m = re.search(rf'^{key}:[A-Z]+=(.*)$', cache, re.M)
        return m.group(1) if m else None

    compiler = cache_value('CMAKE_CXX_COMPILER')
    version = None
    if compiler:
        out = subprocess.run([compiler, '--version'], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
        version = out.splitlines()[0] if out else None
    sha = None
    try:
        got = subprocess.run(['git', '-C', str(root), 'rev-parse', 'HEAD'],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    except OSError:
        pass
    # Without git metadata, a digest of the library sources identifies
    # the code that was measured.
    digest = hashlib.sha256()
    for path in sorted((root / 'src').rglob('*')):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return {'nproc': os.cpu_count(), 'build_type': cache_value('CMAKE_BUILD_TYPE'),
            'compiler': version, 'git_sha': sha,
            'source_sha256': digest.hexdigest(), 'seed': seed}


def child_args(config, workload, size):
    params = dict(config['common'])
    params.update(config['workloads'][workload])
    if size == 'tiny':
        params.update(config['tiny'])
    args = []
    for key, value in params.items():
        args += ['--' + key, str(value)]
    return args


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        fields = pathlib.Path('/proc/stat').read_text().splitlines()[0].split()
    except OSError:
        return None
    values = [int(x) for x in fields[1:9]]
    return values[7], sum(values)


def run_child(binary, args, env):
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f'workload did not finish within {CHILD_TIMEOUT_S}s')
    sys.stderr.write(done.stderr)
    lines = {}
    for line in done.stdout.splitlines():
        tag, _, body = line.partition(' ')
        if tag in ('provenance', 'detail', 'result'):
            lines[tag] = json.loads(body)
    if 'result' not in lines:
        fail(f'workload exited {done.returncode} without a result')
    return done.returncode, lines


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), required=True)
    parser.add_argument('--size', choices=('full', 'tiny'), default='full')
    opts = parser.parse_args()

    root = pathlib.Path.cwd()
    spec = json.loads((root / 'BENCHMARK.json').read_text())
    config = json.loads((BENCH_DIR / 'config.json').read_text())
    if opts.workload not in config['workloads']:
        fail(f'unknown workload {opts.workload!r}')
    build_dir, binary = build(root)

    # The program sees only the generated inputs and the fixed parameters:
    # no BINGO_* knob from the caller's environment can resize a run.
    env = {k: v for k, v in os.environ.items() if not k.startswith('BINGO_')}
    work = root / '.bench_build' / 'work' / f'{opts.workload}-{opts.seed}-{os.getpid()}'
    base_args = ['--seed', str(opts.seed), '--seconds', str(opts.seconds),
                 '--dir', str(work)]
    base_args += child_args(config, opts.workload, opts.size)

    before = cpu_times()
    runs = [0, 1] if opts.trace else [0]
    outputs = {}
    codes = {}
    try:
        for trace in runs:
            shutil.rmtree(work, ignore_errors=True)
            codes[trace], outputs[trace] = run_child(
                binary, base_args + ['--trace', str(trace)], env)
            if trace:
                traces = root / '.bench_build' / 'traces'
                traces.mkdir(parents=True, exist_ok=True)
                kept = traces / f'{opts.workload}-seed{opts.seed}.jsonl'
                shutil.move(str(work / 'spans.jsonl'), str(kept))
                outputs[trace]['detail']['spans'] = str(kept.relative_to(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    after = cpu_times()
    # Share of CPU time the hypervisor gave to other guests while this ran:
    # on a shared host it slows every timed phase, so it is recorded with
    # the result to explain outliers.
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])

    untraced = outputs[0]['result']
    final = outputs[runs[-1]]['result']
    if opts.trace:
        # Tracing overhead: how much worse each headline metric reads with
        # spans on (positive = worse), the untraced run as the base.
        traced_e2e = final['end_to_end']
        for name, better in (('walk_msteps', 'higher'), ('ingest_kups', 'higher'),
                             ('query_p50_ms', 'lower')):
            base = untraced['end_to_end'][name]['value']
            now = traced_e2e[name]['value']
            worse = (base - now) if better == 'higher' else (now - base)
            final['per_layer'][f'trace.overhead_share.{name}'] = {
                'value': worse / base if base else 0.0, 'unit': 'ratio',
                'samples': 2}

    kind = 'per_layer' if opts.trace else 'end_to_end'
    measured = final[kind]
    metrics = {}
    for m in spec[kind]:
        got = measured.get(m['name'])
        if got is None:
            fail(f'workload did not report {m["name"]}')
        if got['unit'] != m['unit']:
            fail(f'{m["name"]} reported in {got["unit"]}, expected {m["unit"]}')
        metrics[m['name']] = {'value': got['value'], 'unit': got['unit']}

    correct = all(outputs[t]['result']['correct'] and codes[t] == 0 for t in runs)
    attempted = sum(outputs[t]['result']['attempted'] for t in runs)
    failed = sum(outputs[t]['result']['failed'] for t in runs)
    print('provenance ' + json.dumps(dict(
        provenance(root, build_dir, opts.seed),
        simd=outputs[0]['provenance']['simd'],
        workload=opts.workload, seconds=opts.seconds, size=opts.size,
        host_steal_share=steal)))
    # Everything the workload measured of this kind, with sample counts,
    # including figures BENCHMARK.json does not gate on (ingest, recovery,
    # out-of-core and capacity figures, the p99 tails).
    print('measured ' + json.dumps(measured))
    print('detail ' + json.dumps(outputs[runs[-1]]['detail']))
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    sys.stdout.flush()
    if not correct:
        sys.exit(1)


if __name__ == '__main__':
    main()
