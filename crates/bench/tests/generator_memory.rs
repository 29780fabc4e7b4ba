//! The sparse synthetic generator's heap stays proportional to what it
//! returns: E18-like data never passes through a dense `n × p` matrix.
//!
//! Uses the counting global allocator's per-thread peak. The generator runs
//! on the calling thread alone, so the peak is the generator's.

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
