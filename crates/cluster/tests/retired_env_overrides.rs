//! `NADMM_COMPRESSION` and `NADMM_COLLECTIVE_ALGO` are no longer read: the
//! wire compression and the collective selection live in the scenario's
//! `ClusterSpec`. A value left in the environment must stop the run by name
//! rather than be ignored. This is a test binary of its own because it sets
//! process environment variables, which would race every other test that
//! builds a cluster.

use nadmm_cluster::{Cluster, CollectiveSelector, Compression, NetworkModel, COLLECTIVE_ALGO_ENV, COMPRESSION_ENV};

#[test]
fn cluster_new_refuses_a_set_retired_override_naming_its_spec_field() {
    for (var, field) in [
        (COMPRESSION_ENV, "ClusterSpec::compression"),
        (COLLECTIVE_ALGO_ENV, "ClusterSpec::collectives"),
    ] {
        // Every value is refused, including ones that name the default.
        for value in ["f16", "none", "ring", "auto", ""] {
            std::env::set_var(var, value);
            let result = std::panic::catch_unwind(|| Cluster::new(2, NetworkModel::ideal()));
            std::env::remove_var(var);
            let payload = result.expect_err("Cluster::new must refuse a set retired override");
            let message = payload.downcast_ref::<String>().expect("the panic carries a formatted message");
            assert!(
                message.contains(var),
                "{var}={value:?}: the message must name the variable: {message}"
            );
            assert!(
                message.contains(field),
                "{var}={value:?}: the message must name {field}: {message}"
            );
        }
    }
    // Unset, the defaults are the automatic selection and the f64 wire.
    let cluster = Cluster::new(2, NetworkModel::ideal());
    assert_eq!(cluster.selector(), CollectiveSelector::Auto);
    assert_eq!(cluster.compression(), Compression::None);
}
