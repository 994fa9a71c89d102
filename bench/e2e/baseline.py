#!/usr/bin/env python3
"""Records a baseline of the end-to-end benchmark, from the root of a checkout:

  python3 bench/e2e/baseline.py [--runs 10] [--first-seed 1] \
      [--out bench/e2e/baseline.json]

Runs every workload of BENCHMARK.json --runs times untraced, each run with
its own seed, then once traced. Writes, per workload and end-to-end figure
the run measured (gated by BENCHMARK.json or not), the values, their
median, quartiles and spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles), plus the traced
run's per-layer readings. Runs alternate between workloads
so a slow period of a shared host does not land on one workload only.
"""

import argparse
import datetime
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path.cwd()


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, 'bench/e2e/run.py', '--workload', workload, '--seed',
         str(seed), '--seconds', str(seconds), '--trace', str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit(f'{workload} seed {seed}: exit {done.returncode}')
    tagged = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(' ')
        tagged[tag] = json.loads(body)
    return json.loads(lines[-1]), tagged


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {'median': median, 'q1': q1, 'q3': q3,
            'spread': (q3 - q1) / median if median else None,
            'values': values}


# The two open ROADMAP anomalies, read off the traced runs.
ANOMALIES = {
    'walk.query_batcher.coalesce_ratio':
        'queries per dispatch at the base step (ROADMAP: batched p99 worse '
        'than direct at low load while coalescing stays near 1)',
    'walk.ooc.parks_per_step':
        'cross-block walker handoffs per walk step in the out-of-core pass '
        '(ROADMAP: throughput rises as the budget shrinks)',
}


def add_anomalies(out):
    out['anomalies'] = {
        name: {'what': what,
               'traced': {w: d['traced']['per_layer'][name]
                          for w, d in out['workloads'].items()}}
        for name, what in ANOMALIES.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument('--runs', type=int, default=10)
    parser.add_argument('--first-seed', type=int, default=1)
    parser.add_argument('--out', default='bench/e2e/baseline.json')
    opts = parser.parse_args()
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    workloads = [w['name'] for w in spec['workloads']]
    bounds = {m['name']: m['bound'] for m in spec['end_to_end']}

    values = {w: {} for w in workloads}
    steal = {w: [] for w in workloads}
    provenance = None
    for i in range(opts.runs):
        for w in workloads:
            result, tagged = run(w, opts.first_seed + i, spec['run_seconds'], 0)
            if not result['correct'] or result['failed']:
                raise SystemExit(f'{w} seed {opts.first_seed + i}: incorrect')
            provenance = provenance or tagged['provenance']
            steal[w].append(tagged['provenance']['host_steal_share'])
            for name, m in tagged['measured'].items():
                values[w].setdefault(name, []).append(m['value'])
            print(f'{w} seed {opts.first_seed + i}: ' + ' '.join(
                f'{k}={v["value"]:.4g}' for k, v in result['metrics'].items()),
                flush=True)

    gated = [m['name'] for m in spec['end_to_end']]
    out = {'what': 'Baseline of the end-to-end benchmark: --runs untraced runs '
                   'per workload (one seed each) and one traced run, recorded '
                   'with bench/e2e/baseline.py. spread = (q3 - q1) / median '
                   'over the values.',
           'gated': gated,
           'not_gated': sorted({n for v in values.values() for n in v} -
                               set(gated)),
           'recorded': datetime.date.today().isoformat(),
           'run_seconds': spec['run_seconds'], 'runs': opts.runs,
           'seeds': [opts.first_seed, opts.first_seed + opts.runs - 1],
           'machine': {k: provenance[k] for k in
                       ('nproc', 'simd', 'build_type', 'compiler')},
           'git_sha': provenance['git_sha'], 'workloads': {}}
    for w in workloads:
        metrics = {name: summary(v) for name, v in values[w].items()}
        for name, s in metrics.items():
            s['bound'] = bounds.get(name)  # None: measured, not gated
        traced, tagged = run(w, opts.first_seed, spec['run_seconds'], 1)
        out['workloads'][w] = {
            'host_steal_share': summary(steal[w]),
            'end_to_end': metrics,
            'traced': {'seed': opts.first_seed, 'correct': traced['correct'],
                       'per_layer': {k: v['value'] for k, v in
                                     traced['metrics'].items()},
                       'ladder': tagged['detail']['ladder']},
        }
        for name, s in metrics.items():
            over = s['bound'] is not None and not s['spread'] <= s['bound']
            print(f'{w:10s} {name:20s} median {s["median"]:10.4g} '
                  f'spread {s["spread"]:.3f} (bound {s["bound"]})'
                  + ('  OVER BOUND' if over else ''))
    add_anomalies(out)
    pathlib.Path(opts.out).write_text(json.dumps(out, indent=1) + '\n')


if __name__ == '__main__':
    main()
