"""A fixed, termnet-independent Python workload that gauges the host's speed.

    python3 -I perfbench/calibrate.py

The benchmark runs it before every stage run, isolated (-I), so that nothing
on the program's path can change its speed.  This host's speed
drifts by up to 1.7x over minutes (other tenants share the machine), and
stage times scale with it; the calibration runs measure that drift where it
happens, so stage times can be scaled to a reference speed.  The mix of
interpreter start-up, string building, regex scans, dict and set work and
sorting follows what termnet's stages spend their time on.
"""

import re


def main() -> None:
    texts = [f"user{i % 997} says #tag{i % 61} about topic{i % 89} take {i}" for i in range(60000)]
    pattern = re.compile(r"(?<![A-Za-z0-9])topic7(?![A-Za-z0-9])", re.IGNORECASE)
    matched = [t for t in texts if pattern.search(t)]
    counts: dict[str, int] = {}
    for text in texts:
        for word in text.split():
            counts[word] = counts.get(word, 0) + 1
    seen = set()
    for a, b in zip(texts, texts[1:]):
        seen.add((a[:8], b[:8]))
    order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if not matched or not seen or not order:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
