#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark, run from the root of a checkout:

  python3 bench/e2e/smoke_test.py

For every workload of BENCHMARK.json it runs a tiny-size run, untraced and
traced, and asserts that the run passes every output check and prints
every end-to-end (per-layer) metric of BENCHMARK.json with its unit and a
sample count. It also asserts that the benchmark sources pass bingo_lint,
and that in a directory holding only BENCHMARK.json and the benchmark's own
files the benchmark fails without printing a result. Exits 0 when all hold.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())
failures = []


def check(ok, what):
    print(('ok   ' if ok else 'FAIL ') + what, flush=True)
    if not ok:
        failures.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke(workload, trace):
    what = f'{workload} trace={trace}'
    done = subprocess.run(
        [sys.executable, 'bench/e2e/run.py', '--workload', workload, '--seed',
         '7', '--seconds', '2', '--trace', str(trace), '--size', 'tiny'],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    result = last_json(done.stdout)
    check(done.returncode == 0, f'{what}: exit code 0 (got {done.returncode})')
    if result is None:
        check(False, f'{what}: result line is JSON')
        sys.stderr.write(done.stderr[-3000:])
        return
    check(set(result) == {'correct', 'attempted', 'failed', 'metrics'},
          f'{what}: result keys')
    check(result['correct'] is True and result['failed'] == 0 and
          result['attempted'] >= 1, f'{what}: every output check passes')
    measured = {}
    for line in done.stdout.splitlines():
        if line.startswith('measured '):
            measured = json.loads(line[len('measured '):])
    kind = 'per_layer' if trace else 'end_to_end'
    for metric in SPEC[kind]:
        got = result['metrics'].get(metric['name'])
        check(got is not None and got['unit'] == metric['unit'] and
              isinstance(got['value'], (int, float)) and
              math.isfinite(got['value']) and
              measured.get(metric['name'], {}).get('samples', 0) >= 1,
              f'{what}: {metric["name"]} printed in {metric["unit"]} '
              'with its sample count')
    if not trace:
        for name, unit in UNGATED.items():
            got = measured.get(name, {})
            check(got.get('unit') == unit and got.get('samples', 0) >= 1,
                  f'{what}: {name} measured in {unit} with its sample count')
        check('"ops_failed_ratio": 0' in done.stdout,
              f'{what}: ops_failed_ratio printed and 0')


# End-to-end figures every untraced run prints on its `measured` line even
# though BENCHMARK.json does not gate them (their ten-run spreads in
# bench/e2e/baseline.json exceed any allowed bound), with their units.
UNGATED = {'ingest_kups': 'kupdates/s', 'recovery_s': 's',
           'walk_msteps': 'Msteps/s', 'ooc_walk_msteps': 'Msteps/s',
           'query_p50_ms': 'ms', 'query_p99_ms': 'ms',
           'query_capacity_qps': 'qps', 'visible_p99_ms': 'ms'}


def lint():
    done = subprocess.run(
        [sys.executable, 'tools/lint/bingo_lint.py', 'bench/e2e'], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    check(done.returncode == 0, 'bingo_lint is clean on bench/e2e\n' +
          (done.stdout if done.returncode else ''))


def bare_directory():
    bare = ROOT / '.bench_build' / 'smoke-bare'
    shutil.rmtree(bare, ignore_errors=True)
    (bare / 'bench').mkdir(parents=True)
    shutil.copy(ROOT / 'BENCHMARK.json', bare / 'BENCHMARK.json')
    shutil.copytree(ROOT / 'bench' / 'e2e', bare / 'bench' / 'e2e')
    done = subprocess.run(
        [sys.executable, 'bench/e2e/run.py', '--workload',
         SPEC['workloads'][0]['name'], '--seed', '1', '--seconds', '1',
         '--trace', '0'], cwd=bare, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=170)
    check(done.returncode != 0 and last_json(done.stdout) is None,
          'without the library sources the benchmark fails with no result')
    shutil.rmtree(bare, ignore_errors=True)


def main():
    if (ROOT / 'tools' / 'lint' / 'bingo_lint.py').exists():
        lint()
    bare_directory()
    for workload in SPEC['workloads']:
        for trace in (0, 1):
            smoke(workload['name'], trace)
    print(f'{len(failures)} failure(s)')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
