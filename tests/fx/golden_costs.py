"""Golden cost-model table, captured from the commit *before* the fold
into ``repro.fx.costs`` (PR 17's parent, 83c0981).

At that commit every number here was produced twice — once by a
binary-join free function in ``gmm/`` / ``nn/`` / ``serve/cost_model.py``
and once by the multi-way adapter class that "reduced to" it.  The
free functions are gone; these literals are what their eight
"adapter == binary function" tests asserted, widened to q = 1, 2, 3
dimensions, cold / warm / mixed / out-of-range hit rates, ``m = n``,
``m > n`` and ``n = 0``.  ``tests/fx/test_costs.py`` checks
:class:`~repro.fx.costs.CostModel` against it and
``tests/runtime/test_planner.py`` checks ``BatchPlanner.plan``.
Do not regenerate it from the code under test.

Two deliberate exceptions.  The ``gmm`` rows of ``PAGES`` charge one
join pass per EM iteration, the passes the one-pass EM driver makes
(``COUNT_TABLE["gmm", "train"]``), where the captured rows charged
Algorithm 1's three; they are the closed form ``(iter·pass, pass +
(1 + iter)·|T|)``.  And ``RECOMMENDATIONS`` lists inputs only: the
captured verdicts compared counts, and training now picks the argmin
of predicted seconds (``fx.costs.TRAINING_SECONDS``), which a fit to
the machine may move — the test asserts that argmin, the clamp and
the page totals instead.
"""

F, M, S = "factorized", "materialized", "streaming"

# The join layout ``(d_s, dim_widths)`` per number of dimensions and
# the per-row multiplier per kind that every table below was captured
# with (ANCHORS rows carry their own).
LAYOUTS = {1: (5, (15,)), 2: (5, (15, 10)), 3: (3, (4, 6, 2))}
WIDTH_PARAM = {"gmm": 3, "nn": 32}

# Hit-rate variants, truncated to the row's number of dimensions; the
# last one is out of range on purpose (clamped to (1, 0, 0.5)).
HIT_RATES = (None, (1.0, 1.0, 1.0), (0.5, 1.0, 0.25), (7.0, -2.0, 0.5))

# (kind, phase, d_s, dim_widths, width_param, n, distinct, dense_mults,
#  ((factorized_mults, strategy) per HIT_RATES variant)).  Training
# rows ignore hit rates: training holds no partial caches.
COUNTS = [
    ('gmm', 'serve', 5, (15,), 3, 100, (5,), 126000, ((15225, F), (10500, F), (12862, F), (10500, F))),
    ('gmm', 'serve', 5, (15,), 3, 64, (64,), 80640, ((67200, F), (6720, F), (36960, F), (6720, F))),
    ('gmm', 'serve', 5, (15,), 3, 10, (40,), 12600, ((38850, M), (1050, F), (19950, M), (1050, F))),
    ('gmm', 'serve', 5, (15,), 3, 1, (1,), 1260, ((1050, F), (105, F), (578, F), (105, F))),
    ('gmm', 'serve', 5, (15,), 3, 0, (0,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('gmm', 'serve', 5, (15,), 3, 0, (7,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('gmm', 'serve', 5, (15, 10), 3, 2048, (1900, 490), 5713920, ((3192900, F), (307200, F), (1632450, F), (542400, F))),
    ('gmm', 'serve', 5, (15, 10), 3, 90, (90, 90), 251100, ((182250, F), (13500, F), (76275, F), (56700, F))),
    ('gmm', 'serve', 5, (15, 10), 3, 12, (30, 4), 33480, ((45570, M), (1800, F), (22725, F), (3720, F))),
    ('gmm', 'serve', 5, (15, 10), 3, 0, (0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('gmm', 'serve', 3, (4, 6, 2), 3, 500, (20, 50, 5), 360000, ((61320, F), (46500, F), (48555, F), (57390, F))),
    ('gmm', 'serve', 3, (4, 6, 2), 3, 50, (50, 50, 50), 36000, ((26850, F), (4650, F), (10800, F), (16350, F))),
    ('gmm', 'serve', 3, (4, 6, 2), 3, 8, (16, 2, 8), 5760, ((4536, F), (744, F), (2496, F), (1320, F))),
    ('gmm', 'serve', 3, (4, 6, 2), 3, 0, (0, 0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'serve', 5, (15,), 32, 100, (5,), 64000, ((18400, F), (16000, F), (17200, F), (16000, F))),
    ('nn', 'serve', 5, (15,), 32, 64, (64,), 40960, ((40960, M), (10240, F), (25600, F), (10240, F))),
    ('nn', 'serve', 5, (15,), 32, 10, (40,), 6400, ((20800, M), (1600, F), (11200, M), (1600, F))),
    ('nn', 'serve', 5, (15,), 32, 1, (1,), 640, ((640, M), (160, F), (400, F), (160, F))),
    ('nn', 'serve', 5, (15,), 32, 0, (0,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'serve', 5, (15,), 32, 0, (7,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'serve', 5, (15, 10), 32, 2048, (1900, 490), 1966080, ((1396480, F), (327680, F), (783680, F), (484480, F))),
    ('nn', 'serve', 5, (15, 10), 32, 90, (90, 90), 86400, ((86400, M), (14400, F), (36000, F), (43200, F))),
    ('nn', 'serve', 5, (15, 10), 32, 12, (30, 4), 11520, ((17600, M), (1920, F), (9120, F), (3200, F))),
    ('nn', 'serve', 5, (15, 10), 32, 0, (0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'serve', 3, (4, 6, 2), 32, 500, (20, 50, 5), 240000, ((60480, F), (48000, F), (49520, F), (57760, F))),
    ('nn', 'serve', 3, (4, 6, 2), 32, 50, (50, 50, 50), 24000, ((24000, M), (4800, F), (10400, F), (16000, F))),
    ('nn', 'serve', 3, (4, 6, 2), 32, 8, (16, 2, 8), 3840, ((3712, F), (768, F), (2176, F), (1408, F))),
    ('nn', 'serve', 3, (4, 6, 2), 32, 0, (0, 0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('gmm', 'train', 5, (15,), 3, 100, (5,), 120000, ((55875, F), (55875, F), (55875, F), (55875, F))),
    ('gmm', 'train', 5, (15,), 3, 64, (64,), 76800, ((76800, M), (76800, M), (76800, M), (76800, M))),
    ('gmm', 'train', 5, (15,), 3, 10, (40,), 12000, ((32250, M), (32250, M), (32250, M), (32250, M))),
    ('gmm', 'train', 5, (15,), 3, 1, (1,), 1200, ((1200, M), (1200, M), (1200, M), (1200, M))),
    ('gmm', 'train', 5, (15,), 3, 0, (0,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('gmm', 'train', 5, (15,), 3, 0, (7,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('gmm', 'train', 5, (15, 10), 3, 2048, (1900, 490), 5529600, ((4962300, F), (4962300, F), (4962300, F), (4962300, F))),
    ('gmm', 'train', 5, (15, 10), 3, 90, (90, 90), 243000, ((243000, M), (243000, M), (243000, M), (243000, M))),
    ('gmm', 'train', 5, (15, 10), 3, 12, (30, 4), 32400, ((42150, M), (42150, M), (42150, M), (42150, M))),
    ('gmm', 'train', 5, (15, 10), 3, 0, (0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('gmm', 'train', 3, (4, 6, 2), 3, 500, (20, 50, 5), 337500, ((259920, F), (259920, F), (259920, F), (259920, F))),
    ('gmm', 'train', 3, (4, 6, 2), 3, 50, (50, 50, 50), 33750, ((33750, M), (33750, M), (33750, M), (33750, M))),
    ('gmm', 'train', 3, (4, 6, 2), 3, 8, (16, 2, 8), 5400, ((5136, F), (5136, F), (5136, F), (5136, F))),
    ('gmm', 'train', 3, (4, 6, 2), 3, 0, (0, 0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'train', 5, (15,), 32, 100, (5,), 64000, ((18400, F), (18400, F), (18400, F), (18400, F))),
    ('nn', 'train', 5, (15,), 32, 64, (64,), 40960, ((40960, M), (40960, M), (40960, M), (40960, M))),
    ('nn', 'train', 5, (15,), 32, 10, (40,), 6400, ((20800, M), (20800, M), (20800, M), (20800, M))),
    ('nn', 'train', 5, (15,), 32, 1, (1,), 640, ((640, M), (640, M), (640, M), (640, M))),
    ('nn', 'train', 5, (15,), 32, 0, (0,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'train', 5, (15,), 32, 0, (7,), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'train', 5, (15, 10), 32, 2048, (1900, 490), 1966080, ((1396480, F), (1396480, F), (1396480, F), (1396480, F))),
    ('nn', 'train', 5, (15, 10), 32, 90, (90, 90), 86400, ((86400, M), (86400, M), (86400, M), (86400, M))),
    ('nn', 'train', 5, (15, 10), 32, 12, (30, 4), 11520, ((17600, M), (17600, M), (17600, M), (17600, M))),
    ('nn', 'train', 5, (15, 10), 32, 0, (0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
    ('nn', 'train', 3, (4, 6, 2), 32, 500, (20, 50, 5), 240000, ((60480, F), (60480, F), (60480, F), (60480, F))),
    ('nn', 'train', 3, (4, 6, 2), 32, 50, (50, 50, 50), 24000, ((24000, M), (24000, M), (24000, M), (24000, M))),
    ('nn', 'train', 3, (4, 6, 2), 32, 8, (16, 2, 8), 3840, ((3712, F), (3712, F), (3712, F), (3712, F))),
    ('nn', 'train', 3, (4, 6, 2), 32, 0, (0, 0, 0), 0, ((0, F), (0, F), (0, F), (0, F))),
]

# The e2e benchmark's training shapes (rr100 / rr2, K = 5, n_h = 50;
# one cold outcome) and its 3-way serving star (n_h = 64, K = 5; cold,
# then hit rates (1.0, 0.5)) — one outcome per ANCHOR_HIT_RATES entry.
ANCHOR_HIT_RATES = (None, (1.0, 0.5))
ANCHORS = [
    ('gmm', 'train', 5, (15,), 5, 200000, (2000,), 400000000, ((177250000, F),)),
    ('nn', 'train', 5, (15,), 50, 200000, (2000,), 200000000, ((51500000, F),)),
    ('gmm', 'train', 5, (5,), 5, 200000, (100000,), 100000000, ((87500000, F),)),
    ('nn', 'train', 5, (5,), 50, 200000, (100000,), 100000000, ((75000000, F),)),
    ('nn', 'serve', 5, (15, 10), 64, 2048, (1900, 490), 3932160, ((2792960, F), (812160, F))),
    ('gmm', 'serve', 5, (15, 10), 5, 2048, (1900, 490), 9523200, ((5321500, F), (708000, F))),
]

# TrainingPageProfile keyword sets; PAGES / RECOMMENDATIONS name them
# by index.
PROFILES = [
    {'fact_pages': 40, 'dim_pages': (12,), 'joined_pages': 90, 'block_pages': 4},
    {'fact_pages': 10, 'dim_pages': (8,), 'joined_pages': 40, 'block_pages': 64},
    {'fact_pages': 40, 'dim_pages': (6, 3), 'joined_pages': 90, 'block_pages': 4},
    {'fact_pages': 25, 'dim_pages': (4, 9, 2), 'joined_pages': 30, 'block_pages': 2},
]
ITERATIONS = (1, 4, 10)

# (kind, profile, join_pass_pages,
#  ((streaming_io_pages, materialized_io_pages) per ITERATIONS)).
PAGES = [
    ('gmm', 0, 132, ((132, 312), (528, 582), (1320, 1122))),
    ('nn', 0, 132, ((132, 312), (528, 582), (1320, 1122))),
    ('gmm', 1, 18, ((18, 98), (72, 218), (180, 458))),
    ('nn', 1, 18, ((18, 98), (72, 218), (180, 458))),
    ('gmm', 2, 49, ((49, 229), (196, 499), (490, 1039))),
    ('nn', 2, 49, ((49, 229), (196, 499), (490, 1039))),
    ('gmm', 3, 40, ((40, 100), (160, 190), (400, 370))),
    ('nn', 3, 40, ((40, 100), (160, 190), (400, 370))),
]

# Run-length / budget arguments of recommend_training_strategy, given
# with the row's profile.
VARIANTS = ({'iterations': 1}, {'iterations': 4}, {'iterations': 50}, {'iterations': 50, 'memory_budget_pages': 35})

# (kind, profile, rows, distinct).
RECOMMENDATIONS = [
    ('gmm', 0, 100, (5,)),
    ('gmm', 0, 64, (64,)),
    ('gmm', 0, 10, (40,)),
    ('gmm', 0, 1, (1,)),
    ('gmm', 0, 0, (0,)),
    ('gmm', 0, 0, (7,)),
    ('nn', 0, 100, (5,)),
    ('nn', 0, 64, (64,)),
    ('nn', 0, 10, (40,)),
    ('nn', 0, 1, (1,)),
    ('nn', 0, 0, (0,)),
    ('nn', 0, 0, (7,)),
    ('gmm', 1, 100, (5,)),
    ('gmm', 1, 64, (64,)),
    ('gmm', 1, 10, (40,)),
    ('gmm', 1, 1, (1,)),
    ('gmm', 1, 0, (0,)),
    ('gmm', 1, 0, (7,)),
    ('nn', 1, 100, (5,)),
    ('nn', 1, 64, (64,)),
    ('nn', 1, 10, (40,)),
    ('nn', 1, 1, (1,)),
    ('nn', 1, 0, (0,)),
    ('nn', 1, 0, (7,)),
    ('gmm', 2, 2048, (1900, 490)),
    ('gmm', 2, 90, (90, 90)),
    ('gmm', 2, 12, (30, 4)),
    ('gmm', 2, 0, (0, 0)),
    ('nn', 2, 2048, (1900, 490)),
    ('nn', 2, 90, (90, 90)),
    ('nn', 2, 12, (30, 4)),
    ('nn', 2, 0, (0, 0)),
    ('gmm', 3, 500, (20, 50, 5)),
    ('gmm', 3, 50, (50, 50, 50)),
    ('gmm', 3, 8, (16, 2, 8)),
    ('gmm', 3, 0, (0, 0, 0)),
    ('nn', 3, 500, (20, 50, 5)),
    ('nn', 3, 50, (50, 50, 50)),
    ('nn', 3, 8, (16, 2, 8)),
    ('nn', 3, 0, (0, 0, 0)),
]
