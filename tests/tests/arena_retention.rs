//! Arena retention gate: the buffer pool keeps only what the arena
//! hands out, so instantiating the same served model again and again
//! leaves it no larger than the first instantiation did.
//!
//! An int8 instantiation rebuilds the cell's data split for calibration
//! and wraps it in tensors the arena never allocated. Dropping those
//! must free them, not pool them; a pool that kept them would grow with
//! every instantiation (as a fleet promoting candidates makes them).
//! Asserted through the arena's own `retained_bytes`. Lives in its own
//! test binary so no unrelated test moves the process-global pool.

use dlbench_data::DatasetKind;
use dlbench_frameworks::{FrameworkKind, Scale};
use dlbench_serve::{ModelDtype, ModelSpec};
use dlbench_tensor::{arena, par};

#[test]
fn reinstantiating_a_model_does_not_grow_the_pool() {
    if std::env::var("DLBENCH_ARENA").as_deref() == Ok("0") {
        // Kill switch engaged: nothing is ever pooled.
        return;
    }
    // One thread, so how many scratch buffers are out at once (and so
    // how many the pool may keep) does not depend on worker timing.
    par::set_threads(1);
    // serve-mix's int8 model.
    let spec = ModelSpec::own_default(
        "caffe-int8",
        FrameworkKind::Caffe,
        DatasetKind::Mnist,
        Scale::Small,
        42,
    )
    .with_dtype(ModelDtype::Int8);
    let retained: Vec<u64> = (0..5)
        .map(|_| {
            drop(spec.instantiate(None).expect("instantiate the int8 model"));
            arena::stats().retained_bytes
        })
        .collect();
    assert!(retained[0] > 0, "the pool kept nothing — is the arena on the model's path?");
    assert!(
        retained[4] <= retained[0],
        "the pool grew across instantiations (bytes pooled after each): {retained:?}"
    );
}
