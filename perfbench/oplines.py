"""Parse op lines into library arguments with dweyl's public parsers.

This module imports nothing, so the set-up probe can load it before it
starts its clock and then time ``import dweyl`` plus parsing alone.
"""


def load(workload):
    """Import the library as the workload's ops need it."""
    import dweyl

    if workload == "session":
        import dweyl.cli
    return dweyl


def flags(line):
    """The ``--key value`` pairs of an op line after its command word."""
    words = line.split()[1:]
    return {key[2:]: value for key, value in zip(words[::2], words[1::2])}


def parse(dw, workload, line):
    """Library arguments of one op: a query, a table spec, a split or an argv."""
    f = flags(line)
    if workload == "decompose":
        return dw.InducedQuery(int(f["n"]), int(f["a"]), int(f["b"]), dw.parse_irr_label(f["A"]), dw.parse_irr_label(f["B"]))
    if workload == "chartable":
        return f["type"], int(f["n"])
    if workload == "verify":
        return int(f["n"]), int(f["a"]), int(f["b"])
    return line.split()


def parse_all(dw, workload, lines):
    return [parse(dw, workload, line) for line in lines]
