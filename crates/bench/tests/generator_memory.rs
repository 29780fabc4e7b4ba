//! The synthetic generators' heap stays proportional to what they return:
//! E18-like data never passes through a dense `n × p` matrix, and dense data
//! carries no per-row RNG state beside its matrix.
//!
//! Uses the counting global allocator's per-thread peak. Every allocation the
//! generator makes is on the calling thread (pool workers only fill rows of
//! the matrix it allocated), so the peak is the generator's.

use nadmm_bench::alloc_counter::{peak_bytes, CountingAllocator};
use nadmm_data::SyntheticConfig;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn e18_like_generation_peaks_below_twice_its_stored_bytes() {
    let cfg = SyntheticConfig::e18_like();
    let (peak, (train, test)) = peak_bytes(|| cfg.generate(7));
    assert!(train.is_sparse() && test.is_sparse());
    let stored = train.features().storage_bytes() + test.features().storage_bytes();
    let dense = (cfg.train_size + cfg.test_size) * cfg.num_features * std::mem::size_of::<f64>();
    assert!(
        stored * 5 < dense,
        "e18-like data is sparse: {stored} stored bytes vs {dense} dense"
    );
    assert!(
        peak <= 2 * stored,
        "generating e18-like data held {peak} heap bytes at its peak, more than twice the {stored} bytes the \
         CSR matrices store"
    );
}

#[test]
fn higgs_like_generation_peaks_within_five_percent_of_its_stored_bytes() {
    // 28 features: the labels add 8 bytes to a row's 224, and 32 bytes of
    // saved RNG state a row would add another 14 %.
    let cfg = SyntheticConfig::higgs_like();
    let (peak, (train, test)) = peak_bytes(|| cfg.generate(7));
    assert!(!train.is_sparse() && !test.is_sparse());
    let stored = train.features().storage_bytes() + test.features().storage_bytes();
    assert_eq!(
        stored,
        (cfg.train_size + cfg.test_size) * cfg.num_features * std::mem::size_of::<f64>()
    );
    assert!(
        peak * 100 <= stored * 105,
        "generating higgs-like data held {peak} heap bytes at its peak, more than 1.05 × the {stored} bytes the \
         dense matrices store"
    );
}
