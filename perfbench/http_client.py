"""Open-loop HTTP client for the ``serve_journaled`` workload.

Runs as its own process and uses one connection at a time.  Requests
fall due on a fixed schedule (``--rate`` per second) whether or not the
server kept up; each is timed from when it was due, and how late the
generator sent it is recorded too.  Reads (``GET /metrics``,
``GET /queries/<id>/results``) and a register/unregister pair
(``POST``/``DELETE /queries``) in every 8 requests.

The rate and the mix are not taken from any observed use: no measured
serving session exists to take them from.  They are set so that every
route runs in every repetition.  The server answers between batches of
its ingest loop, so a request waits about a second and one connection
gets through only a few requests per repetition: at the larger input
size the first four (a metrics scrape, the registration, another
scrape, the unregistration), at the smaller one or two.

Protocol with the parent: print ``ready`` once started, stop at the
first line (or end of file) on stdin, then print one JSON summary line.

    python3 perfbench/http_client.py --port 8080 --rate 10 --ids sq1,sq2
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time

#: Registered and then unregistered by the client's writes.
WRITE_QUERY = "SELECT time, srcIP, destIP, len FROM TCP WHERE len > 600"
TIMEOUT_S = 10.0
#: Hard ceiling on the client's life, should the parent never say stop.
MAX_LIFE_S = 170.0


def request(port: int, method: str, path: str, body: bytes = b""):
    """(status, response bytes); status 0 on a transport failure."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body or None, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def plan(k: int, ids, created):
    """The k-th request: (kind, method, path, body).

    The writes come early (requests 1 and 3 of every 8) so that every
    larger repetition registers and unregisters a query, whose rows are then
    checked against a solo run over the records it saw.
    """
    if k % 8 == 1 and created is None:
        body = json.dumps({"query": WRITE_QUERY, "name": "q"}).encode()
        return "register", "POST", "/queries", body
    if k % 8 == 3 and created is not None:
        return "unregister", "DELETE", f"/queries/{created}", b""
    if k % 2 == 0:
        return "metrics", "GET", "/metrics", b""
    qid = ids[k % len(ids)]
    return "results", "GET", f"/queries/{qid}/results?limit=1000", b""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--ids", required=True, help="comma-separated query ids")
    args = parser.parse_args(argv)
    ids = args.ids.split(",")

    stop = threading.Event()

    def watch() -> None:
        sys.stdin.readline()
        stop.set()

    threading.Thread(target=watch, daemon=True).start()
    print("ready", flush=True)

    period = 1.0 / args.rate
    origin = time.perf_counter()
    created = None
    latency_ms, late_ms, metrics_bytes, writes, errors = [], [], [], [], []
    k = 0
    while not stop.is_set() and time.perf_counter() - origin < MAX_LIFE_S:
        due = origin + k * period
        wait = due - time.perf_counter()
        if wait > 0 and stop.wait(wait):
            break
        kind, method, path, body = plan(k, ids, created)
        sent = time.perf_counter()
        status, payload = request(args.port, method, path, body)
        done = time.perf_counter()
        k += 1
        latency_ms.append((done - due) * 1e3)
        late_ms.append((sent - due) * 1e3)
        if not 200 <= status < 300:
            errors.append({"kind": kind, "status": status, "body": payload[:200].decode("replace")})
            continue
        if kind == "metrics":
            metrics_bytes.append(len(payload))
        elif kind == "register":
            created = json.loads(payload)["id"]
            writes.append({"op": "register", "id": created})
        elif kind == "unregister":
            writes.append({"op": "unregister", "id": created})
            created = None
    print(json.dumps({
        "requests": k,
        "errors": errors,
        "latency_ms": latency_ms,
        "late_ms": late_ms,
        "metrics_bytes": metrics_bytes,
        "writes": writes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
