"""Expected output rows for the benchmark's workloads.

The rows come from the benchmark's own line parser over the generated
text, never from the code under test. Each workload plants one kind of
record, which the parser recovers with Python's `re`:

* dense: every log line ``host METHOD path status[ err=cause]`` gives
  (method, path, optional cause); the cause column is ``⊥`` when absent;
* wide: every pair of adjacent log lines gives host, method and path of
  the first line and host, method, path and status of the second;
* fleet: every uppercase ``EVT<p> id=<digits> code=<CAPS>`` line gives a
  row of plan p. The lowercase filler cannot spell a tag.

Spans are 1-based and end-exclusive, as the tools print them. Rows are
compared per document as sorted lists, so the check does not depend on
the order in which a document's mappings are enumerated.
"""

import hashlib
import json
import re

LOG_LINE = re.compile(rb"([a-z0-9]+) ([A-Z]+) ([^ \n]*) ([0-9]+)(?: err=([a-z]+))?")
NEEDLE = re.compile(rb"EVT([0-9]{2}) id=([0-9]+) code=([A-Z]+)")


def _col(doc_off, start, end, text):
    return "%d..%d\t%s" % (doc_off + start + 1, doc_off + end + 1, text.decode())


def _lines(doc):
    """(offset, bytes) of every newline-terminated line of `doc`."""
    off = 0
    for line in doc.split(b"\n")[:-1]:
        yield off, line
        off += len(line) + 1


def _log_fields(line):
    m = LOG_LINE.fullmatch(line)
    if m is None:
        raise ValueError("not a log line: %r" % line)
    return m


def expected_rows(kind, docs):
    """Per document, the sorted list of expected TSV rows (no newline); a
    row's document column is the document's position."""
    out = []
    for label, doc in enumerate(docs):
        rows = []
        if kind == "dense":
            for off, line in _lines(doc):
                m = _log_fields(line)
                cols = [str(label), _col(off, m.start(2), m.end(2), m.group(2)),
                        _col(off, m.start(3), m.end(3), m.group(3))]
                if m.group(5) is None:
                    cols.append("⊥\t")
                else:
                    cols.append(_col(off, m.start(5), m.end(5), m.group(5)))
                rows.append("\t".join(cols))
        elif kind == "wide":
            fields = [(off, _log_fields(line)) for off, line in _lines(doc)]
            for (o1, a), (o2, b) in zip(fields, fields[1:]):
                cols = [str(label)]
                cols += [_col(o1, a.start(g), a.end(g), a.group(g)) for g in (1, 2, 3)]
                cols += [_col(o2, b.start(g), b.end(g), b.group(g)) for g in (1, 2, 3, 4)]
                rows.append("\t".join(cols))
        elif kind in ("fleet", "served"):
            for off, line in _lines(doc):
                m = NEEDLE.fullmatch(line)
                if m is not None:
                    rows.append("\t".join([
                        str(int(m.group(1))), str(label),
                        _col(off, m.start(2), m.end(2), m.group(2)),
                        _col(off, m.start(3), m.end(3), m.group(3))]))
        else:
            raise ValueError("unknown kind %r" % kind)
        out.append(sorted(rows))
    return out


def doc_column(kind):
    """Index of the document column in a row (fleet rows lead with the plan)."""
    return 1 if kind in ("fleet", "served") else 0


def group_rows(kind, rows, n_docs):
    """Splits output rows into per-document sorted lists; None if a row
    names a document outside [0, n_docs) or documents come out of order."""
    col = doc_column(kind)
    per_doc = [[] for _ in range(n_docs)]
    last = -1
    for row in rows:
        fields = row.split("\t")
        try:
            d = int(fields[col])
        except (IndexError, ValueError):
            return None
        if d < 0 or d >= n_docs or d < last:
            return None
        last = d
        per_doc[d].append(row)
    return [sorted(r) for r in per_doc]


def parse_tsv_output(data):
    """Rows of a spanex TSV stream, header lines dropped."""
    text = data.decode("utf-8", errors="replace")
    rows = text.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    if rows and rows[0].startswith("doc\t"):
        rows = rows[1:]
    return [r for r in rows if not r.startswith("# q")]


def count_failed(expected, actual):
    """Documents whose rows differ; every document fails if `actual` is None."""
    if actual is None:
        return len(expected)
    return sum(1 for e, a in zip(expected, actual) if e != a)


def digest(per_doc_rows):
    h = hashlib.sha256()
    for rows in per_doc_rows:
        for r in rows:
            h.update(r.encode())
            h.update(b"\n")
        h.update(b"\0")
    return h.hexdigest()


def response_rows(rows_file):
    """{(connection, request id): [row, ...]} from pb_load's rows.jsonl."""
    out = {}
    with open(rows_file, "rb") as f:
        for line in f:
            conn, _, body = line.partition(b"\t")
            obj = json.loads(body)
            out.setdefault((int(conn), obj["id"]), []).extend(obj["rows"])
    return out
