"""Output-error identification of input-driven Hamiltonian systems.

The package trains a scalar Hamiltonian network whose symplectic gradient,
together with a fixed input matrix, defines the model vector field. Training
minimizes the simulation error of RK4 rollouts against noisy state
measurements; classical derivative-matching baselines (structured and
black-box) are included for comparison on Duffing-type oscillator benchmarks.
"""

from oehnn.dynamics import (
    StructureMatrices,
    SystemSpec,
    coupled_system,
    duffing_system,
    field_fn,
    hamiltonian_fn,
    structure_matrices,
)
from oehnn.integrate import IntegrationError, rk4_lanes, rollout
from oehnn.signals import MultisineSpec, NoiseSpec, add_noise, multisine_value, sample_phases
from oehnn.data import (
    Dataset,
    GenerationProtocol,
    Trajectory,
    fd_derivatives,
    generate,
    read_csv,
    write_csv,
)
from oehnn.netmodel import (
    BlackBoxNet,
    HamiltonianNet,
    blackbox_field,
    h_grad_x,
    h_hess_vec,
    h_value,
    init_blackbox_net,
    init_hamiltonian_net,
    load_model,
    oe_hnn_field,
    save_model,
)
from oehnn.train import (
    AdamState,
    FitResult,
    TrainConfig,
    adam_step,
    derivative_loss_grad,
    fit,
    simulation_loss,
    simulation_loss_grad,
)
from oehnn.evaluate import Metrics, evaluate, model_field, rmse

__version__ = "0.1.0"
