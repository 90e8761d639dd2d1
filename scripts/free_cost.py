#!/usr/bin/env python3
"""What freeing file blocks costs on a filesystem: the unlinks and the
rename over an existing file that a durable store's write path used to
issue, an fdatasync issued while an unlink runs, and the calls that
replaced them (a rename onto a free name, an fdatasync after an in-place
overwrite, a directory fsync).

Usage: python3 scripts/free_cost.py DIR [REPEATS]. DIR is created on the
filesystem under test and may be removed afterwards; every file is written
and fdatasync'ed, and its directory fsync'ed, before a call on it is
timed. Prints the median, minimum and maximum of REPEATS (default 7) calls.
"""
import os, sys, time, threading, statistics

d = sys.argv[1]
reps = int(sys.argv[2]) if len(sys.argv) > 2 else 7
os.makedirs(d, exist_ok=True)

def make(path, size):
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
    chunk = b"\xa5" * (1 << 20)
    left = size
    while left > 0:
        n = min(left, len(chunk))
        os.write(fd, chunk[:n])
        left -= n
    os.fdatasync(fd)
    os.close(fd)
    dfd = os.open(d, os.O_RDONLY)
    os.fsync(dfd)
    os.close(dfd)

def ms(f):
    t = time.perf_counter()
    f()
    return (time.perf_counter() - t) * 1e3

def row(name, xs):
    xs = sorted(xs)
    print(f"{name:<44} p50 {statistics.median(xs):8.2f} ms  min {xs[0]:8.2f}  max {xs[-1]:8.2f}  n={len(xs)}")

for size, label in [(4 << 10, "4 KiB"), (4 << 20, "4 MiB"), (16 << 20, "16 MiB")]:
    xs = []
    for i in range(reps):
        p = os.path.join(d, f"unlink-{i}")
        make(p, size)
        xs.append(ms(lambda: os.unlink(p)))
    row(f"unlink {label}", xs)

xs = []
for i in range(reps):
    a, b = os.path.join(d, "ra"), os.path.join(d, "rb")
    make(a, 4 << 10)
    make(b, 4 << 10)
    xs.append(ms(lambda: os.rename(a, b)))
    os.unlink(b)
row("rename over an existing 4 KiB file", xs)

xs = []
for i in range(reps):
    a, b = os.path.join(d, "na"), os.path.join(d, "nb")
    make(a, 4 << 10)
    xs.append(ms(lambda: os.rename(a, b)))
    os.unlink(b)
row("rename onto a free name", xs)

def overwrite_sync(path, size, zero=False):
    fd = os.open(path, os.O_WRONLY)
    buf = (b"\x00" if zero else b"\x5a") * (64 << 10)
    for off in range(0, size, len(buf)):
        os.pwrite(fd, buf, off)
    t = ms(lambda: os.fdatasync(fd))
    os.close(fd)
    return t

p = os.path.join(d, "overwrite")
make(p, 4 << 20)
row("fdatasync of 4 MiB overwritten in place", [overwrite_sync(p, 4 << 20) for _ in range(reps)])
os.unlink(p)

xs = []
for i in range(reps):
    p = os.path.join(d, "small")
    make(p, 4 << 20)
    victim = os.path.join(d, f"victim-{i}")
    make(victim, 16 << 20)
    fd = os.open(p, os.O_WRONLY)
    os.pwrite(fd, b"x" * 4096, 0)
    th = threading.Thread(target=os.unlink, args=(victim,))
    th.start()
    time.sleep(0.002)
    xs.append(ms(lambda: os.fdatasync(fd)))
    th.join()
    os.close(fd)
    os.unlink(p)
row("fdatasync of 4 KiB while a 16 MiB unlink runs", xs)

xs = []
for i in range(reps):
    dfd = os.open(d, os.O_RDONLY)
    p = os.path.join(d, f"ds-{i}")
    make(p, 4 << 10)
    os.rename(p, p + ".moved")
    xs.append(ms(lambda: os.fsync(dfd)))
    os.close(dfd)
    os.unlink(p + ".moved")
row("directory fsync after one rename", xs)
