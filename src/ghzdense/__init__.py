"""Dense coding on GHZ triples: exact simulation, measurement network,
single-qubit reachability analysis, and noisy round-trip trials."""

from types import ModuleType as _ModuleType

from .qstate import (
    ATOL,
    CNOT,
    HADAMARD,
    IDENTITY,
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    UnitaryMatrix,
    apply_on_subset,
    basis_state,
    dump_state,
    embed_on_subset,
    fidelity_up_to_phase,
    haar_random_unitary,
    inner_product,
    load_state,
    measure_computational,
    tensor,
)
from .bases import (
    BasisCatalog,
    OrthonormalityReport,
    bell_catalog,
    bell_state,
    catalog_by_name,
    ghz_catalog,
    ghz_state,
    phi_catalog,
    phi_state,
    verify_orthonormal,
)
from .encoding import (
    EncodingOp,
    ReachabilityVerdict,
    bell_encode,
    encode,
    encoding_op,
    reachability_matrix,
    reachability_oracle,
    reachability_oracle_matrix,
    reachable_by_single_qubit,
)
from .ghzmeasure import (
    DECODE_TABLE,
    GATE_SEQUENCE,
    decode,
    disentangle,
    ghz_measure,
    index_distribution,
    network_unitary,
    outcome_for_index,
)
from .protocol import (
    BELL_DECODE_TABLE,
    CapacityRow,
    ChannelConfig,
    PROTOCOL_NAMES,
    TrialReport,
    bell_measure,
    capacity_summary,
    roundtrip_bell,
    roundtrip_ghz,
    run_trials,
)

__version__ = "0.1.0"

# The import block above is the one list of public names.
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType))
