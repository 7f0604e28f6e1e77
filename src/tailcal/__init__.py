"""tailcal: measure the class prior a trained classifier absorbed from
imbalanced data and remove it post hoc, validated against an analytic
Bayes oracle on synthetic long-tailed Gaussian mixtures.

The tuples below are the choices that the command-line option tables offer
and the library modules check. They live here, where importing them loads
no other module, so that ``import tailcal.cli`` builds its parser without
loading the library.
"""

__version__ = "0.1.0"

SHIFT_DIRECTIONS = ("forward", "backward", "uniform")  # test-time label shifts
SCHEDULES = ("constant", "cosine")  # learning-rate schedules
ACTIVATIONS = ("relu", "tanh")  # hidden-layer activations
STAGE_TWO_MODES = ("CL", "FT")  # classifier-only or full retraining
# Each post-hoc adjustment and the kinds of prior it accepts as the estimate
# it removes: the count prior ("frequency"), or the tag of an effective-prior
# estimate (prior.py). A train-side estimate is the prior the training loss
# saw; the other three all measure the inference-side marginal, so they are
# interchangeable with one another.
PRIOR_KINDS = {
    "class-frequency": ("frequency",),
    "p2p-ce": ("train-side",),
    "p2p-la": ("val-side", "train-reweighted", "averaged"),
    "none": (),
}
METHODS = tuple(PRIOR_KINDS)
ESTIMATORS = PRIOR_KINDS["p2p-ce"] + PRIOR_KINDS["p2p-la"]  # the effective-prior tags
DEFAULT_ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)  # estimate exponents
