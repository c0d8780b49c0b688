"""qcab: exact quantum cluster algebra seeds, braid moves and certification."""

from .cartan import (
    CartanDatum,
    CartanError,
    beta_sequence,
    build_cartan,
    is_reduced,
    longest_word,
    parse_type,
)
from .seeds import (
    CompatiblePair,
    SeedError,
    ValuedQuiver,
    check_compatible,
    make_pair,
    mutate_pair,
    permute_pair,
    quiver_from_matrix,
    quiver_mutate,
    quiver_to_matrix,
)
from .braid import (
    BraidError,
    BraidMove,
    CertReport,
    IndexSequence,
    alternating,
    build_seed,
    detect_move,
    forward_shift_seed,
    g2_exhaustive_certify,
    move_witness,
    unfold,
    verify_move_on_seed,
)
from .torus import (
    ClusterState,
    DivisionRemainderError,
    NotPointedError,
    QCoeff,
    QLaurent,
    WindowTorus,
    degree_of_pointed,
    divide_right_exact,
    mutate_state,
    normal_monomial,
    predicted_degree,
)
from .gvectors import cone_contains, cone_generator, gmap_apply, gmap_shift, p_sum, psum_delta
from .lusztig import c_of_deg, cmap_apply, cmap_by_degrees, deg_of_c, nu
from .qgroth import (
    TCartan,
    XElement,
    XTorus,
    check_kappa,
    kappa_witness,
    kr_monomial,
    npairing,
    substitute_b2,
    verify_fq_fixture,
    verify_truncated_fixture,
    xelement_from_text,
    xelement_to_text,
    z_xi,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
