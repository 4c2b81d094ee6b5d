"""Model, optimizer and simulator for RF-powered 802.11 sensor networks."""

from .energy import (EnergyBreakdown, EnergyCoefficients,
                     collision_transmit_energy, constraint_slack, cycle_energy,
                     energy_coefficients, success_transmit_energy)
from .mac import (PerfReport, SlotProbabilities, alpha_from_tau, channel_load,
                  evaluate, slot_probabilities, stationary_distribution,
                  tau_from_alpha, tau_from_window, window_from_alpha)
from .optimize import (DecisionVector, KktReport, OptResult, OptimizerConfig,
                       check_kkt, round_decision, solve_alpha_block,
                       solve_bcd, solve_n_block, utility)
from .params import (DutyCycle, InfeasibleError, InvalidParameterError,
                     InvalidStateError, LinkParams, Node, PowerProfile,
                     ProtocolParams, Scenario)
from .scenario_io import (bundled_scenario, load_scenario, save_scenario,
                          scenario_from_dict, scenario_to_dict)
from .sim import SimConfig, SimStats, empirical_energy_check, simulate
from .timing import FrameTimes, frame_times

__version__ = "0.1.0"
