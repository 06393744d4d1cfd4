"""Correctness checks for the benchmark's workloads.

Every check returns a list of failure messages (empty when the output is
right). Each one compares the program's output with a computation made here,
apart from the program, or with a property the method must have; none
compares with a stored copy of an earlier output.
"""

import math

import numpy as np

# R peaks must land within this many samples (17 ms at 300 Hz) of the
# generator's analytic R index to count as found.
PEAK_TOL_SAMPLES = 5
MIN_SENSITIVITY = 0.99
MIN_PPV = 0.99

# The paper's claims, as criterion 6 of the acceptance tests freezes them
# for the seed-8 reference cohort.
MIN_REST_REST = 0.90
MIN_REST_EX_GAP = 0.30
MIN_KL_GAP = 0.15

# Feature layout and width that each method-survey stage must produce.
STAGE_LAYOUTS = {
    "qrs30": ("qrs30", 30),
    "beat300": ("beat300", 300),
    "pqrst240": ("pqrst240", 240),
    "bandpass10_40+beat300": ("beat300", 300),
    "stft": ("stft", 572),
    "cwt": ("cwt", 9600),
    "ac": ("ac80", 80),
    "ac_beat": ("ac80_beat", 80),
    "fused": ("fused", 10252),
}

REPORT_COLUMNS = ("pipeline", "protocol", "train_acc_pct", "test_acc_pct",
                  "subjects", "train_beats", "test_beats", "skipped_beats",
                  "converged", "subject_majority_acc_pct")


# ===== R peaks ============================================================

def match_peaks(detected, truth, tol=PEAK_TOL_SAMPLES):
    """One-to-one matches between two sorted index lists within tol.

    A two-pointer merge; exact while tol is below half the shortest RR
    interval, which holds for every synthetic heart rate.
    """
    detected = sorted(int(d) for d in detected)
    truth = sorted(int(t) for t in truth)
    i = j = hits = 0
    while i < len(truth) and j < len(detected):
        gap = detected[j] - truth[i]
        if abs(gap) <= tol:
            hits += 1
            i += 1
            j += 1
        elif gap < 0:
            j += 1
        else:
            i += 1
    return hits


def peak_failures(label, detected, truth, tol=PEAK_TOL_SAMPLES):
    """Sensitivity and positive predictive value of detected R peaks."""
    if len(truth) == 0:
        return ["%s: no ground-truth beats" % label]
    if len(detected) == 0:
        return ["%s: no beats detected" % label]
    hits = match_peaks(detected, truth, tol)
    sens = hits / len(truth)
    ppv = hits / len(detected)
    if sens < MIN_SENSITIVITY or ppv < MIN_PPV:
        return ["%s: sensitivity %.4f ppv %.4f at +-%d samples (need >= %.2f)"
                % (label, sens, ppv, tol, min(MIN_SENSITIVITY, MIN_PPV))]
    return []


def parse_peak_file(text):
    """R-peak indices from the one-integer-per-line output of `ecgid detect`."""
    return [int(line) for line in text.split("\n") if line.strip()]


# ===== paper replication ==================================================

def paper_claim_failures(rest_rest, rest_ex, fused, sweep):
    """The paper's qualitative claims over one criterion-6 sequence."""
    out = []
    if rest_rest.test_accuracy < MIN_REST_REST:
        out.append("rest_rest accuracy %.3f < %.2f"
                   % (rest_rest.test_accuracy, MIN_REST_REST))
    gap = rest_rest.test_accuracy - rest_ex.test_accuracy
    if gap < MIN_REST_EX_GAP:
        out.append("rest_rest - rest_ex = %.3f < %.2f" % (gap, MIN_REST_EX_GAP))
    best = max(r.test_accuracy for r in sweep)
    if best - fused.test_accuracy < MIN_KL_GAP:
        out.append("best fused_kl - fused = %.3f < %.2f"
                   % (best - fused.test_accuracy, MIN_KL_GAP))
    return out


def converged_failures(reports):
    return ["%s on %s did not converge" % (r.pipeline, r.protocol)
            for r in reports if not r.converged]


def _rbf_rows(x, gamma):
    """exp(-gamma * |x_a - x_b|^2), one row at a time by direct differences."""
    k = np.empty((x.shape[0], x.shape[0]))
    for a in range(x.shape[0]):
        k[a] = np.exp(-gamma * ((x - x[a]) ** 2).sum(axis=1))
    return k


def kkt_violation(k, y, alpha, bias, c, eps=1e-12):
    """Largest violation of the soft-margin KKT conditions on y*f(x) - 1."""
    r = y * (k @ (alpha * y) + bias) - 1.0
    at_zero = alpha <= eps
    at_c = alpha >= c - eps
    free = ~(at_zero | at_c)
    v = np.zeros_like(r)
    v[at_zero] = np.maximum(0.0, -r[at_zero])
    v[at_c] = np.maximum(0.0, r[at_c])
    v[free] = np.abs(r[free])
    return float(v.max())


def svm_model_failures(model, labels, tol, pair_sample):
    """Every pair converged within tol; sampled pairs re-checked here.

    `labels` are the training labels passed to svm_train. The model keeps
    its training rows in label-sorted order, so row t belongs to
    sorted(labels)[t]. For each pair index in `pair_sample` the pair's
    alpha is rebuilt from its coefficients, and the KKT violation and the
    equality constraint sum(alpha * y) = 0 are recomputed from the rows.
    """
    out = []
    n_classes = len(model.classes)
    if len(model.pairs) != n_classes * (n_classes - 1) // 2:
        out.append("%d pairs for %d classes" % (len(model.pairs), n_classes))
    bad = [p for p in model.pairs
           if not p.converged or not p.kkt_violation <= tol]
    if bad:
        out.append("%d of %d SVM pairs unconverged (worst kkt %.3g > %g)"
                   % (len(bad), len(model.pairs),
                      max(p.kkt_violation for p in bad), tol))
    row_labels = np.array(sorted(labels))
    for index in pair_sample:
        pair = model.pairs[index]
        rows = np.flatnonzero((row_labels == pair.label_pos)
                              | (row_labels == pair.label_neg))
        y = np.where(row_labels[rows] == pair.label_pos, 1.0, -1.0)
        signed = np.zeros(model.sv_matrix.shape[0])
        signed[pair.sv_idx] = pair.coef
        alpha = signed[rows] * y
        if np.any(alpha < -1e-12) or np.any(alpha > model.c * (1 + 1e-9)):
            out.append("pair %s|%s: alpha outside [0, c]"
                       % (pair.label_pos, pair.label_neg))
            continue
        balance = abs(float(np.sum(alpha * y)))
        if balance > 1e-6 * model.c:
            out.append("pair %s|%s: sum(alpha*y) = %.3g, not 0"
                       % (pair.label_pos, pair.label_neg, balance))
        k = _rbf_rows(model.sv_matrix[rows], model.gamma)
        kkt = kkt_violation(k, y, alpha, pair.bias, model.c)
        if not kkt <= tol + 1e-9:
            out.append("pair %s|%s: recomputed kkt %.3g > tol %g"
                       % (pair.label_pos, pair.label_neg, kkt, tol))
    return out


# ===== method survey ======================================================

def width_failures(stage, layout_id, dim):
    want = STAGE_LAYOUTS[stage]
    if (layout_id, dim) != want:
        return ["stage %s: layout %s width %d, declared %s width %d"
                % (stage, layout_id, dim, want[0], want[1])]
    return []


def nearest_label(train_values, train_labels, row):
    """1-NN by direct differences to every train row; ties go to the
    lowest train row."""
    d = ((train_values - row) ** 2).sum(axis=1)
    best = int(np.argmin(d))
    return train_labels[best], float(d[best])


def knn_failures(train, test, predicted, rows):
    """Recompute 1-NN for the sampled test rows and compare labels.

    When the labels differ, the program's answer is still accepted if its
    label's nearest train row is as close as the true nearest up to
    rounding, since the two distance formulas may order an exact tie apart.
    """
    out = []
    labels = list(train.subject_ids)
    for row in rows:
        want, d_min = nearest_label(train.values, labels, test.values[row])
        got = predicted[row]
        if got == want:
            continue
        mine = np.array([lab == got for lab in labels])
        d_got = (float(((train.values[mine] - test.values[row]) ** 2)
                       .sum(axis=1).min()) if mine.any() else math.inf)
        if d_got > d_min + 1e-9 * max(1.0, d_min):
            out.append("1-NN test row %d: predicted %s, nearest train row is %s"
                       % (row, got, want))
    return out


def survey_gap_failures(accuracies):
    """Every stage must score lower on rest_ex than on rest_rest.

    `accuracies` maps stage -> (rest_rest accuracy, rest_ex accuracy).
    """
    return ["stage %s: rest_ex %.3f >= rest_rest %.3f" % (stage, ex, rest)
            for stage, (rest, ex) in accuracies.items() if ex >= rest]


# ===== CLI walkthrough ====================================================

def exit_code_failures(codes):
    """`codes` is a list of (argv, exit code) pairs."""
    return ["`ecgid %s` exited %d" % (" ".join(argv[:1]), code)
            for argv, code in codes if code != 0]


def weights_failures(text, top_n):
    """The weights file flags exactly the top_n features by descending w
    (ties to the lower index), and w = lam*w1 - (1-lam)*w2."""
    lines = [ln for ln in text.split("\n") if ln]
    head = dict(part.split("=", 1) for part in lines[0].split(","))
    lam = float(head["lambda"])
    w, flagged = [], set()
    out = []
    for line in lines[1:]:
        idx, wv, w1, w2, flag = line.split(",")
        w.append(float(wv))
        if abs(lam * float(w1) - (1 - lam) * float(w2) - float(wv)) > \
                1e-9 * max(1.0, abs(float(wv))):
            out.append("feature %s: w != lam*w1 - (1-lam)*w2" % idx)
        if int(flag):
            flagged.add(int(idx))
    top = sorted(range(len(w)), key=lambda i: (-w[i], i))[:top_n]
    if len(flagged) != top_n:
        out.append("%d features flagged, top_n is %d" % (len(flagged), top_n))
    elif flagged != set(top):
        out.append("flagged features are not the top %d by weight" % top_n)
    return out


def parse_markdown_report(text):
    """Rows of a `report --format markdown` table as column dicts."""
    lines = [ln for ln in text.split("\n") if ln.startswith("|")]
    header = tuple(c.strip() for c in lines[0].strip("|").split("|"))
    if header != REPORT_COLUMNS:
        raise ValueError("unexpected report header %r" % (header,))
    return [dict(zip(REPORT_COLUMNS,
                     (c.strip() for c in ln.strip("|").split("|"))))
            for ln in lines[2:]]


def _pct_close(cell, fraction):
    return abs(float(cell.rstrip("%")) - 100.0 * fraction) <= 0.05 + 1e-9


def report_failures(rows, reports):
    """A merged report must hold one row per library report, in agreement.

    `reports` are ExperimentReports from run_pipeline / sweep_top_n on the
    same manifest and seed.
    """
    out = []
    if len(rows) != len(reports):
        out.append("report has %d rows, expected %d" % (len(rows), len(reports)))
    by_key = {(r["pipeline"], r["protocol"]): r for r in rows}
    for rep in reports:
        row = by_key.get((rep.pipeline, rep.protocol))
        if row is None:
            out.append("report lacks %s on %s" % (rep.pipeline, rep.protocol))
            continue
        same = (_pct_close(row["train_acc_pct"], rep.train_accuracy)
                and _pct_close(row["test_acc_pct"], rep.test_accuracy)
                and _pct_close(row["subject_majority_acc_pct"],
                               rep.subject_majority_accuracy)
                and int(row["subjects"]) == rep.n_subjects
                and int(row["train_beats"]) == rep.train_beats
                and int(row["test_beats"]) == rep.test_beats
                and int(row["skipped_beats"]) == rep.skipped_beats
                and row["converged"] == ("1" if rep.converged else "0"))
        if not same:
            out.append("report row %s on %s disagrees with run_pipeline"
                       % (rep.pipeline, rep.protocol))
    return out
