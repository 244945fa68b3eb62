"""adlift: real-time-bidding scoring and audience analytics.

Ranks categorical request factors by mutual information, trains and serves
a sparse conversion-rate predictor at low latency, and models repeat-visit
behaviour with Gamma-Poisson (NBD) machinery including cookie-churn
correction, virtual-time detrending, SSA forecasting and change alarms.
"""

from .features import ImportanceVector, rank_factors, renyi_mi, shannon_mi
from .ingest import (EventBatch, FactorDictionary, FactorTable, RequestBatch,
                     Schema, aggregate_hourly, build_factor_table,
                     parse_cookie_events, parse_requests)
from .predictor import (BatchScores, PacingState, ScoredRequest,
                        SparseRateModel, load_model, pace, pace_batch,
                        save_model, score, score_batch, train)
from .repeatbuy import (ChurnAdjustment, FrequencyTable, NbdModel,
                        SurvivalTable, adjust_for_churn, build_frequency_table,
                        compare_frequencies, estimate_survival,
                        fit_nbd_truncated, nbd_pmf, nbd_zero_truncated_pmf)
from .timeseries import (AlarmConfig, AlarmReport, SsaModel, VirtualClock,
                         build_virtual_clock, check_alarm, ssa_fit,
                         ssa_forecast, virtualize)

__version__ = "0.1.0"
