"""Seeded generator of a SUPPORT2-shaped survival table.

The table has the columns `data/support2.schema.json` declares, with
SUPPORT2's row count (9,105), censored count (2,904), integer day times up
to 2,029 days (2,030 bins at bin width 1), categorical levels and `NA`
cells.  Event times follow a Weibull model whose log-hazard is a known
monotone function of four columns (age, meanbp, avtisst, ca), so a trained
model has to beat chance by a clear margin.  The same seed always writes
the same bytes.
"""

import csv
import json
import os

import numpy as np

N_ROWS = 9105
N_CENSORED = 2904
MAX_DAY = 2029
# one-hot levels (30) + continuous columns (23) + one missing-indicator per
# column that has NA cells (16), for a full-table encoding
ENCODED_FEATURES = 69

# name -> (mean, sd, low, high, decimals, missing fraction); decimals 0 = integer
_CONTINUOUS = {
    "age": (62.6, 15.6, 18.0, 101.0, 5, 0.0),
    "num.co": (1.9, 1.3, 0.0, 9.0, 0, 0.0),
    "edu": (11.7, 3.4, 0.0, 31.0, 0, 0.18),
    "scoma": (12.0, 24.6, 0.0, 100.0, 0, 0.01),
    "avtisst": (22.6, 13.2, 1.0, 83.0, 2, 0.02),
    "hday": (4.4, 9.9, 1.0, 148.0, 0, 0.0),
    "meanbp": (84.5, 27.7, 0.0, 195.0, 0, 0.0),
    "wblc": (12.3, 9.3, 0.0, 200.0, 4, 0.02),
    "hrt": (97.2, 31.6, 0.0, 300.0, 0, 0.0),
    "resp": (23.3, 9.6, 0.0, 90.0, 0, 0.0),
    "temp": (37.1, 1.25, 31.7, 41.7, 5, 0.0),
    "pafi": (239.5, 109.7, 12.0, 890.4, 4, 0.26),
    "alb": (2.95, 0.68, 0.4, 29.0, 4, 0.37),
    "bili": (2.55, 5.3, 0.1, 63.0, 4, 0.29),
    "crea": (1.77, 1.69, 0.1, 21.5, 4, 0.02),
    "sod": (137.6, 6.0, 110.0, 181.0, 0, 0.0),
    "ph": (7.416, 0.08, 6.83, 7.77, 5, 0.25),
    "glucose": (159.9, 88.0, 0.0, 1092.0, 0, 0.49),
    "bun": (32.3, 26.0, 1.0, 300.0, 0, 0.48),
    "urine": (2191.0, 1456.0, 0.0, 9000.0, 0, 0.53),
    "adlp": (1.2, 1.8, 0.0, 7.0, 0, 0.62),
    "adls": (1.6, 2.2, 0.0, 7.0, 0, 0.31),
    "adlsc": (1.9, 2.0, 0.0, 7.0, 4, 0.0),
}

# name -> ({level: probability}, missing fraction)
_CATEGORICAL = {
    "sex": ({"female": 0.44, "male": 0.56}, 0.0),
    "income": ({"under $11k": 0.32, "$11-$25k": 0.2, "$25-$50k": 0.14, ">$50k": 0.34}, 0.33),
    "race": ({"white": 0.79, "black": 0.16, "hispanic": 0.03, "asian": 0.01, "other": 0.01}, 0.01),
    "diabetes": ({"0": 0.8, "1": 0.2}, 0.0),
    "dementia": ({"0": 0.97, "1": 0.03}, 0.0),
    "ca": ({"no": 0.62, "yes": 0.22, "metastatic": 0.16}, 0.0),
}

_DZGROUP = {
    "ARF/MOSF w/Sepsis": 0.39,
    "CHF": 0.16,
    "COPD": 0.11,
    "Lung Cancer": 0.10,
    "MOSF w/Malig": 0.08,
    "Coma": 0.07,
    "Colon Cancer": 0.06,
    "Cirrhosis": 0.03,
}
_DZCLASS = {
    "ARF/MOSF w/Sepsis": "ARF/MOSF",
    "MOSF w/Malig": "ARF/MOSF",
    "CHF": "COPD/CHF/Cirrhosis",
    "COPD": "COPD/CHF/Cirrhosis",
    "Cirrhosis": "COPD/CHF/Cirrhosis",
    "Lung Cancer": "Cancer",
    "Colon Cancer": "Cancer",
    "Coma": "Coma",
}

_WEIBULL_SHAPE = 0.7
_WEIBULL_SCALE = 420.0  # days; sets the share of events before follow-up ends


def _format(values, decimals):
    if decimals == 0:
        return [str(int(v)) for v in np.rint(values)]
    return [f"{v:.{decimals}f}" for v in values]


def _blank_missing(cells, fraction, rng):
    count = int(round(fraction * len(cells)))
    for row in rng.choice(len(cells), size=count, replace=False):
        cells[row] = "NA"


def _levels(probs, rng, n):
    names = list(probs)
    p = np.array([probs[k] for k in names])
    return [names[i] for i in rng.choice(len(names), size=n, p=p / p.sum())]


def true_log_hazard(age, meanbp, avtisst, metastatic):
    """The generator's known monotone risk: higher means an earlier event."""
    return (
        1.0 * (age - 62.6) / 15.6
        - 0.7 * (meanbp - 84.5) / 27.7
        + 0.7 * (avtisst - 22.6) / 13.2
        + 1.2 * metastatic
    )


def generate(seed):
    """(columns, risk): every schema column as a list of CSV cells, plus
    the true log-hazard of each row."""
    rng = np.random.default_rng(seed)
    n = N_ROWS
    latent, columns = {}, {}
    for name, (mean, sd, lo, hi, decimals, _) in _CONTINUOUS.items():
        values = np.clip(rng.normal(mean, sd, size=n), lo, hi)
        if decimals == 0:
            values = np.rint(values)
        latent[name] = values
        columns[name] = _format(values, decimals)
    dzgroup = _levels(_DZGROUP, rng, n)
    columns["dzgroup"] = dzgroup
    columns["dzclass"] = [_DZCLASS[g] for g in dzgroup]
    for name, (probs, _) in _CATEGORICAL.items():
        columns[name] = _levels(probs, rng, n)

    metastatic = np.array([c == "metastatic" for c in columns["ca"]], dtype=np.float64)
    risk = true_log_hazard(latent["age"], latent["meanbp"], latent["avtisst"], metastatic)
    event = _WEIBULL_SCALE * rng.exponential(size=n) ** (1.0 / _WEIBULL_SHAPE)
    event = np.maximum(1.0, np.ceil(event * np.exp(-risk / _WEIBULL_SHAPE)))
    follow_up = rng.integers(300, MAX_DAY + 1, size=n).astype(np.float64)
    # exactly N_CENSORED rows are censored: those whose event lies furthest
    # past their follow-up; they are seen at the earlier of the two days
    censored = np.zeros(n, dtype=bool)
    censored[np.argsort(-(event / follow_up), kind="stable")[:N_CENSORED]] = True
    days = np.where(censored, np.minimum(event, follow_up), np.minimum(event, MAX_DAY))
    days[np.argmax(days)] = MAX_DAY  # pins the grid at MAX_DAY + 1 bins
    columns["d.time"] = [str(int(d)) for d in days]
    columns["death"] = ["0" if c else "1" for c in censored]

    for name, spec in _CONTINUOUS.items():
        _blank_missing(columns[name], spec[5], rng)
    for name, (_, fraction) in _CATEGORICAL.items():
        _blank_missing(columns[name], fraction, rng)
    return columns, risk


def write_inputs(out_dir, seed, schema_path):
    """Write the table, a two-point grid file and a scores file.

    The scores are the true risk, negated, plus seeded noise, rounded so
    that some tie.  Returns the paths (and the schema's) plus the exact
    C-index of the scores, counted here without the program.
    """
    with open(schema_path, "r", encoding="utf-8") as fh:
        order = list(json.load(fh)["columns"])
    columns, risk = generate(seed)
    if sorted(order) != sorted(columns):
        raise ValueError(f"{schema_path} declares other columns than the generator writes")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "schema": schema_path,
        "dataset": os.path.join(out_dir, "support2_synth.csv"),
        "grid": os.path.join(out_dir, "grid.json"),
        "scores": os.path.join(out_dir, "scores.csv"),
    }
    with open(paths["dataset"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(order)
        writer.writerows(zip(*(columns[name] for name in order)))
    with open(paths["grid"], "w", encoding="utf-8") as fh:
        json.dump({"learning_rate": [1e-2], "l2": [0.0, 1e-4]}, fh)
    noise = np.random.default_rng([seed, 1]).normal(0.0, 1.0, size=len(risk))
    scores = np.round(-risk + noise, 1)
    with open(paths["scores"], "w", encoding="utf-8") as fh:
        fh.write("score\n" + "".join(f"{s!r}\n" for s in scores.tolist()))
    times = np.array([float(d) for d in columns["d.time"]])
    observed = np.array([e == "1" for e in columns["death"]])
    return paths, exact_c_index(times, observed, scores)


def exact_c_index(times, observed, scores):
    """C-index from exact integer counts, in O(n log n).

    Walks records by decreasing time with a Fenwick tree over score ranks:
    when an observed record is reached, the tree holds exactly the records
    with a strictly later time.  Returns (2*concordant + tied) / (2*pairs),
    the same integer-first form as `c_index_from_pairs`.
    """
    times = np.asarray(times, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    ranks = np.unique(np.asarray(scores, dtype=np.float64), return_inverse=True)[1] + 1
    size = int(ranks.max()) if len(ranks) else 0
    tree = [0] * (size + 1)

    def count_at_most(r):
        total = 0
        while r > 0:
            total += tree[r]
            r -= r & -r
        return total

    order = np.argsort(-times, kind="stable").tolist()
    t_sorted = times[order].tolist()
    ranks = ranks.tolist()
    observed = observed.tolist()
    pairs = concordant = tied = inserted = 0
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and t_sorted[stop] == t_sorted[start]:
            stop += 1
        group = order[start:stop]
        for i in group:
            if observed[i]:
                r = ranks[i]
                below_or_equal = count_at_most(r)
                pairs += inserted
                concordant += inserted - below_or_equal
                tied += below_or_equal - count_at_most(r - 1)
        for i in group:
            r = ranks[i]
            while r <= size:
                tree[r] += 1
                r += r & -r
            inserted += 1
        start = stop
    if pairs == 0:
        raise ValueError("no acceptable pairs")
    return (2 * concordant + tied) / (2 * pairs)
