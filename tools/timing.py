"""
The timing loop of the scale scripts in this directory: the median process
time of interleaved repeats.
"""

import statistics


def interleaved_medians(phases_of, params, repeats: int) -> dict:
    """
    {p: {phase: median seconds}} for every p in `params`, over `repeats`
    repeats of `phases_of(p)`, which returns {phase: process seconds} for
    one run at p.  The repeats are interleaved: repeat r runs every p
    before repeat r + 1 starts, so a drift in machine speed touches every p
    alike.  Each median is rounded to 0.1 ms.
    """
    times = {p: [] for p in params}
    for r in range(repeats):
        for p in params:
            times[p].append(phases_of(p))
        print(f"repeat {r + 1}/{repeats} done", flush=True)
    return {p: {phase: round(statistics.median(run[phase] for run in runs), 4)
                for phase in runs[0]}
            for p, runs in times.items()}
