"""Work shared between this process and a forked child.

``can_fork`` tells whether the system allows a helper process, and
``Fork`` runs one beside a block of this process.  Two of ``ingest``'s
jobs use them: a CSV write of many values (``ingest._write_halves``) and
``count_capture``, which counts the bins of a large capture file in two
processes.  ``ingest`` imports this module only for a read or write that
large, so a run with none compiles none of it.
"""
from __future__ import annotations

import io
import os
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

from . import ingest
from .errors import ValidationError
from .series import TimeSeries

# A capture's body is cut into pieces of this many bytes, each on to a
# line end that a read of ``_PROBE_BYTES`` finds, as each chunk of a piece
# is; the two processes take them one at a time, so the faster one counts
# more of them.
_PIECE_BYTES = 1 << 20
_PROBE_BYTES = 1 << 12


def can_fork() -> bool:
    """Whether this process may fork a helper to share its work: the
    system has ``fork`` and reports two or more CPUs that this process may
    run on (``sched_getaffinity``: Linux, not macOS)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class Fork:
    """A forked child that runs ``work()`` while a ``with`` block runs here.

    The child leaves by ``os._exit``: 0 when ``work`` returns and 1 on any
    exception, so that none of this process's cleanup or buffers runs
    twice.  It is reaped when the block ends, however it ends, and
    ``status`` is then its exit status.  Where ``fork`` raises
    ``OSError``, ``pid`` is None and the block runs alone.
    """

    def __init__(self, work: Callable[[], object]):
        self.work = work
        self.pid: int | None = None
        self.status = 0

    def __enter__(self) -> Fork:
        try:
            with warnings.catch_warnings():
                # Python 3.12 and later warn on a fork in a process with
                # threads, as numpy's BLAS has: a child could deadlock on
                # a lock another thread held.  These children take none:
                # they run numpy arithmetic and write to one file or pipe.
                warnings.filterwarnings("ignore", r".*use of fork\(\)", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            return self
        if self.pid == 0:
            status = 1
            try:
                self.work()
                status = 0
            finally:
                os._exit(status)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


class _Unfit(Exception):
    """A capture that the split read leaves to the one-process read."""


def count_capture(path: str | Path, bin_width: float, filter_protocols: bool) -> TimeSeries | None:
    """The series of the capture file ``path``, counted in two processes,
    or None where the one-process read must count it.

    This process reads and checks the header, so its errors are raised
    here, and cuts the body into pieces (``_piece_ends``).  It writes one
    token per piece into a pipe with no writer left, then forks.  Each
    process takes a piece by a one-byte read of that pipe, which is
    atomic, until the read finds it empty: so each piece is counted once,
    and the faster process counts more of them (``_count_pieces``).  The
    child sends its packet count, last timestamp and bin counts back
    through a second pipe.  Their sum is exact, as counts stay below
    2**53.  A piece that is not plain, a time the bins reject, chunks held
    by the bins rule (which held for each process's own packets, so it
    holds for the sum), no kept packet, no helper (``can_fork``) or a
    child that failed: then None, and the one-process read, which alone
    decides every error, reads the file again.
    """
    if not can_fork():
        return None
    with ingest._capture_lines(path) as lines:
        fd = lines.raw.fileno()
        ncols, ti, pi, _ = ingest._read_header(lines)
        ends = _piece_ends(fd, lines.raw.tell(), os.fstat(fd).st_size)
        if ends is None:
            return None
        tokens, feed = _pipe()
        replies, reply = _pipe()
        with tokens, replies, reply:
            with feed:
                feed.write(bytes(range(len(ends) - 1)))

            def count() -> ingest._Bins:
                return _count_pieces(fd, tokens, ends, (ncols, ti, pi), bin_width, filter_protocols)

            def reply_with_counts() -> None:
                replies.close()  # so that a write the parent stops reading fails
                bins = count()
                with reply:
                    reply.write(np.r_[bins.packets, bins.last, bins.counts[: bins.n_bins]].data)

            with Fork(reply_with_counts) as child:
                if child.pid is None:
                    return None
                reply.close()
                try:
                    mine = count()
                    theirs = replies.readall()
                except (_Unfit, ValidationError):
                    return None
                finally:
                    tokens.readall()
                    replies.close()
        if child.status:
            return None
        theirs = np.frombuffer(theirs, np.float64)
        try:
            mine.add_counts(int(theirs[0]), float(theirs[1]), theirs[2:])
        except ValidationError:
            return None
    return mine.series() if mine.packets else None


def _pipe() -> tuple[io.FileIO, io.BufferedWriter]:
    """The unbuffered read end and the buffered write end of a new pipe."""
    read, write = os.pipe()
    return open(read, "rb", buffering=0), open(write, "wb")


def _piece_ends(fd: int, body: int, size: int) -> list[int] | None:
    """Offsets that cut a capture's body, bytes ``[body, size)`` of the
    file ``fd``, into at most 256 pieces: each of ``_PIECE_BYTES``, or a
    256th of the body if that is more, and on to just past a line end,
    that a ``_PROBE_BYTES`` read finds.  None where it finds none."""
    step = max(_PIECE_BYTES, -(-(size - body) // 256))
    ends = [body]
    for cut in range(body + step, size, step):
        line_end = os.pread(fd, _PROBE_BYTES, cut - 1).find(b"\n")
        if line_end < 0:
            return None
        ends.append(cut + line_end)
    ends.append(size)
    return ends


def _count_pieces(
    fd: int, tokens: io.FileIO, ends: list[int], shape: tuple[int, int, int],
    bin_width: float, filter_protocols: bool,
) -> ingest._Bins:
    """The bins of the pieces of the capture file ``fd`` that this process
    takes from ``tokens``: a token ``k`` names the piece from ``ends[k]``
    to ``ends[k + 1]``.

    A piece is read by ``preadv``, never at the shared file offset, into
    one reused buffer, a chunk at a time, and each chunk is parsed by
    ``ingest._parse_plain_chunk`` (``shape`` is the header's cells and
    time and protocol columns).  A chunk is ``ingest._CHUNK_BYTES`` on to
    the end of its line, as the one-process read cuts it, so that the
    parse's temporaries have the sizes they have there: with chunks cut
    short of that size, glibc's dynamic trim threshold kept about 1 MB
    more of freed heap resident in some runs.  A line that does not end
    within ``_PROBE_BYTES`` is unfit.  Raises ``_Unfit`` for
    a chunk that is not plain and for chunks the bins rule holds, and
    :class:`ValidationError` for a time the bins reject; on any exception
    the tokens left are drained, so the other process stops after its
    current piece.
    """
    bins = ingest._Bins(bin_width)
    front, chunk_bytes = ingest._FRONT, ingest._CHUNK_BYTES
    buf = bytearray(front + chunk_bytes + _PROBE_BYTES + 1)
    buf[front - 1] = ingest._NEWLINE
    window = memoryview(buf)[front:]
    try:
        while token := tokens.read(1):
            pos, stop = ends[token[0]], ends[token[0] + 1]
            while pos < stop:
                size = os.preadv(fd, [window[: min(chunk_bytes + _PROBE_BYTES, stop - pos)]], pos)
                if pos + size < stop:
                    size = buf.find(b"\n", front + chunk_bytes - 1, front + size) + 1 - front
                parsed = ingest._parse_plain_chunk(buf, size, *shape) if size > 0 else None
                if parsed is None:
                    raise _Unfit
                times, known = parsed
                bins.add(times[known] if filter_protocols else times)
                pos += size
        if bins.held:
            raise _Unfit
    except BaseException:
        tokens.readall()
        raise
    return bins
