"""serve_zipf: the explanation service under a skewed closed-loop load.

An ``ExplainServer`` with the default ``ServeConfig`` (512-entry cache,
coalescing and the degradation ladder on) runs in its own process and
hosts a logistic loan model with a 60-row background. One client in
the worker process holds one reused ``HTTPConnection`` and sends its
next request as soon as the last answer arrived: sampling tier, 20
permutations. One client, not two: with two, a cache hit often waited
for the server's interpreter lock behind the other client's miss, so
the median moved with the host's CPU steal (2.3 to 4.2 ms over four
runs on a shared 2-vCPU Xeon) while one client's stayed within 1.21 to
1.32 ms. Keys are Zipf(``ZIPF_S``) over
``N_KEYS`` jittered loan rows, four times the cache, so hits exercise
the HTTP front and cache while misses (and the cache writes and
evictions they cause) exercise the coalition engine and estimator.
The warm-up requests the ``CACHE_SIZE`` most popular keys once, which
fills the cache before timing starts. Because the loop is closed, the
request rate follows the server's speed.

Run as a script (``--server``) this file is the server process: it
builds the service, reports its set-up time and port on stdout, and
then answers ``mark`` / ``stats`` / ``quit`` lines on stdin.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import subprocess
import sys

import numpy as np
from repro import obs
from repro.datasets import make_loan_dataset
from repro.models import LogisticRegression
from repro.serve import ExplainServer, ServeConfig

N_TRAIN = 600
MODEL_SEED = 7
N_BACKGROUND = 60
N_KEYS = 2048
CACHE_SIZE = 512          # ServeConfig's default, restated for the warm-up
ZIPF_S = 1.1
RANK_SEED = 20_480        # fixed: see run()
JITTER = 1e-3
N_PERMUTATIONS = 20
SETUP_REPEATS = 7         # one set-up takes milliseconds
ADDITIVITY_TOL = 1e-9
IO_TIMEOUT_S = 30.0


# -- server process -----------------------------------------------------------


def build_server():
    data = make_loan_dataset(N_TRAIN, seed=MODEL_SEED)
    model = LogisticRegression(alpha=1.0).fit(data.X, data.y)
    server = ExplainServer(ServeConfig())
    server.add_endpoint("loan", model, data.X[:N_BACKGROUND],
                        feature_names=data.feature_names)
    server.start()
    return server


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve_main(argv=None) -> int:
    from common import delta, peak_rss_mb, program_counters, timed_setup
    from spans import OP, SpanLog
    from stats import tail_percentile

    parser = argparse.ArgumentParser()
    parser.add_argument("--server", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    log = SpanLog()
    if args.trace:
        import layers

        layers.install(log)
    # Only the last construction serves; each earlier one is stopped,
    # untimed, before the next starts, so no spare server's threads or
    # memory remain in the timed phase or in the peak RSS.
    server, setup_s, samples = timed_setup(build_server, SETUP_REPEATS,
                                           release=ExplainServer.stop)
    __, port = server.address()
    _reply({"port": port, "setup_s": setup_s, "setup_samples_s": samples})

    before = hist_before = None
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            before = program_counters()
            hist_before = obs.histogram_states()
            log.active = bool(args.trace)
            _reply({"ok": True})
        elif command == "stats":
            log.active = False
            work = delta(before, program_counters())
            wait = obs.histogram_deltas(hist_before).get("serve.queue.wait_ms")
            wait_tail = 0.0
            if wait:
                h = obs.Histogram("window.queue_wait_ms")
                h.merge_state(wait)
                wait_tail = h.quantile(tail_percentile(h.count) / 100.0) \
                    if h.count >= 20 else h.max
            if args.trace and args.spans:
                log.dump(args.spans, [s for s in log.spans
                                      if s[OP] is not None and s[OP] >= 0])
            _reply({"work": work, "rss_mb": peak_rss_mb(),
                    "admission_wait_ms_tail": wait_tail})
        elif command == "quit":
            break
    server.stop()
    return 0


# -- client (load generator) --------------------------------------------------


def _zipf_probabilities(n: int, s: float):
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()


class _Client:
    """The closed-loop caller: one reused ``HTTPConnection``."""

    def __init__(self, port: int, bodies) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=IO_TIMEOUT_S)
        self.bodies = bodies

    def post(self, op):
        """Send ``op = (request id, key)``; returns ``(status, body)``
        once the last byte of the answer is read."""
        request_id, key = op
        try:
            self.conn.request(
                "POST", "/explain",
                body=b'{"request_id": %d, %s' % (request_id, self.bodies[key]),
                headers={"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()   # the next request opens a fresh one
            raise

    def close(self) -> None:
        self.conn.close()


class _Server:
    """The server subprocess and its line protocol."""

    def __init__(self, trace: bool, spans_path: str) -> None:
        cmd = [sys.executable, os.path.abspath(__file__), "--server",
               "--trace", str(int(trace)), "--spans", spans_path]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited early")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=20)


def run(ctx) -> dict:
    from common import closed_loop, layer_metrics, result
    from spans import END, NAME, OP, START, graft, subset
    from stats import percentile

    # Inputs from the seed: the jittered instances and which instance
    # each popularity rank is. The sequence of ranks requested is the
    # same for every seed: how many requests miss the cache sets most of
    # a run's work, and a per-seed draw would move it by several percent.
    rng = np.random.default_rng(ctx.seed)
    instances = make_loan_dataset(N_KEYS, seed=ctx.seed).X
    instances = instances + rng.normal(scale=JITTER, size=instances.shape)
    by_rank = rng.permutation(N_KEYS)
    ranks = np.random.default_rng(RANK_SEED).choice(
        N_KEYS, size=ctx.n_ops, p=_zipf_probabilities(N_KEYS, ZIPF_S))
    # Timed requests carry ids 0..n-1, the op ids of their spans; the
    # warm-up's are negative.
    timed_ops = list(enumerate(by_rank[ranks].tolist()))
    warm_ops = [(-1 - j, key)
                for j, key in enumerate(by_rank[:CACHE_SIZE].tolist())]
    # Request bodies after the leading request id, one per key.
    bodies = [
        json.dumps({
            "model": "loan",
            "instance": [float(v) for v in x],
            "tier": "sampling",
            "params": {"n_permutations": N_PERMUTATIONS, "seed": 0},
        })[1:].encode()
        for x in instances
    ]

    data = make_loan_dataset(N_TRAIN, seed=MODEL_SEED)
    model = LogisticRegression(alpha=1.0).fit(data.X, data.y)

    spans_path = os.path.join(ctx.out_dir, f"serve_zipf-{ctx.seed}.server"
                              ".spans.jsonl")
    server = _Server(ctx.trace, spans_path)
    try:
        client = _Client(server.hello["port"], bodies)
        try:
            __, warm_out, warm_errors = closed_loop(warm_ops, client.post,
                                                    ctx.log)
            server.ask("mark")
            ctx.log.active = ctx.trace
            latencies, outputs, errors = closed_loop(timed_ops, client.post,
                                                     ctx.log)
            ctx.log.active = False
        finally:
            client.close()
        stats = server.ask("stats")
    finally:
        server.close()

    # Checks, after the timed phase.
    first = {}
    for (__, key), out in zip(warm_ops, warm_out):
        if out is not None and out[0] == 200:
            first.setdefault(key, json.loads(out[1])["attribution"])
    predicted = {}
    ok, reasons, cache_mix, statuses = [], dict(errors), {}, {}
    for i, ((__, key), out) in enumerate(zip(timed_ops, outputs)):
        if out is None:
            ok.append(False)
            continue
        status, data = out
        statuses[str(status)] = statuses.get(str(status), 0) + 1
        bad = None
        if status != 200:
            bad = f"status {status}"
        else:
            body = json.loads(data)
            att, mode = body["attribution"], body["meta"]["cache"]
            cache_mix[mode] = cache_mix.get(mode, 0) + 1
            if key not in predicted:
                predicted[key] = float(
                    model.predict_proba(instances[key][None, :])[0, 1])
            values = np.asarray(att["values"], dtype=float)
            gap = abs(values.sum() + att["base_value"] - att["prediction"])
            if not (np.all(np.isfinite(values)) and gap <= ADDITIVITY_TOL):
                bad = f"additivity gap {gap:.3g}"
            elif att["prediction"] != predicted[key]:
                bad = "prediction differs from the model"
            elif mode in ("hit", "coalesced") and key in first \
                    and att != first[key]:
                bad = f"{mode} response differs from the first for its key"
            first.setdefault(key, att)
        if bad:
            reasons[i] = bad
        ok.append(bad is None)

    work = dict(stats["work"])
    work.update({"ops": len(timed_ops),
                 **{f"client.status.{k}": n for k, n in statuses.items()},
                 **{f"client.cache.{k}": n for k, n in cache_mix.items()}})

    layer = None
    if ctx.trace:
        client_spans = subset(ctx.log.spans, range(len(timed_ops)))
        with open(spans_path, encoding="utf-8") as fh:
            foreign = [list(json.loads(line).values()) for line in fh]
        spans = graft(client_spans, subset(foreign, range(len(timed_ops))))
        handled = {s[OP]: s[END] - s[START] for s in spans
                   if s[NAME] == "serve.handle_explain"}
        http_ms = [(latencies[op] - t) * 1e3 for op, t in handled.items()]
        layer = layer_metrics(spans, work, {
            "http_ms_p50": percentile(http_ms, 50) if http_ms else 0.0,
            "admission_wait_ms_tail": stats["admission_wait_ms_tail"],
        })
    record = result(
        ok=ok, reasons=reasons, latencies=latencies, unit_per_op=1,
        setup=(None, server.hello["setup_s"],
               server.hello["setup_samples_s"]),
        work=work, rss_mb=stats["rss_mb"], layer=layer,
    )
    # A warm-up request that failed fails the run as a whole.
    record["reasons"].extend(f"warm-up: {e}" for e in warm_errors.values())
    return record


if __name__ == "__main__":
    sys.exit(serve_main())
