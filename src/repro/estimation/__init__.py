"""Location estimation: the broker-side answer to filtered LUs (paper §3.3).

When the ADF suppresses a node's location updates, the grid broker predicts
the node's position from the updates it did receive.  The paper uses Brown's
double exponential smoothing on velocity and direction plus trigonometric
projection; ARIMA is discussed and rejected for its data requirements, so we
implement both (the ARIMA comparison is ablation A3).
"""

from repro.estimation.smoothing import (
    BrownDoubleExponentialSmoothing,
    HoltLinearSmoothing,
    SimpleExponentialSmoothing,
)
from repro.estimation.arima import ArimaModel, fit_ar_coefficients
from repro.estimation.arima_tracker import ArimaTracker
from repro.estimation.kalman import KalmanTracker
from repro.estimation.map_matched import MapMatchedTracker
from repro.estimation.tracker import (
    BrownTracker,
    HoltTracker,
    LastKnownTracker,
    LocationTracker,
    SimpleSmoothingTracker,
    VelocityComponentTracker,
)
from repro.estimation.metrics import mae, max_error, rmse

__all__ = [
    "SimpleExponentialSmoothing",
    "BrownDoubleExponentialSmoothing",
    "HoltLinearSmoothing",
    "ArimaModel",
    "ArimaTracker",
    "KalmanTracker",
    "MapMatchedTracker",
    "fit_ar_coefficients",
    "LocationTracker",
    "LastKnownTracker",
    "BrownTracker",
    "VelocityComponentTracker",
    "SimpleSmoothingTracker",
    "HoltTracker",
    "rmse",
    "mae",
    "max_error",
]
