//! Degenerate clouds through the inference plan: a cloud too small for a
//! network must end in a [`Session`] exactly as it ends on the tape — the
//! same panic, or the same output bits. A plan is compiled from shapes, so
//! this is what holds it to the tape's checks: skipping the tape's
//! arithmetic must never turn a tape panic into an answer.

use mesorasi::prelude::*;
use mesorasi::tensor::Matrix;
use mesorasi::Strategy;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Set while [`outcome`] runs a forward that may panic on purpose.
    static EXPECTING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` and returns its output or its panic message, which is not
/// printed: the default panic hook stays in place for every other panic.
fn outcome(f: impl FnOnce() -> Matrix) -> Result<Matrix, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !EXPECTING.with(Cell::get) {
                default(info);
            }
        }));
    });
    EXPECTING.with(|e| e.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    EXPECTING.with(|e| e.set(false));
    result.map_err(|payload| {
        let message = payload.downcast_ref::<String>().cloned();
        message
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "a panic without a message".into())
    })
}

/// `n` points of a shape; no points at all for `n = 0`.
fn cloud_of(n: usize) -> PointCloud {
    if n == 0 {
        PointCloud::new()
    } else {
        sample_shape(ShapeClass::Lamp, n, 3)
    }
}

/// All seven networks (small scale) × all three strategies × an empty
/// cloud, a cloud with fewer points than the first module's `k`, and one
/// with fewer than its `n_out`: `infer` and a streamed frame each end as
/// the tape does.
#[test]
fn degenerate_clouds_end_in_a_session_as_on_the_tape() {
    mesorasi_par::with_threads(1, || {
        for kind in NetworkKind::ALL {
            let net = kind.build_small(5, &mut seeded_rng(0));
            let full = sample_shape(ShapeClass::Chair, net.input_points(), 1);
            let trace = net.forward(&mut Graph::new(), &full, Strategy::Delayed, 7).trace;
            let first =
                trace.modules[0].search.as_ref().expect("every network opens with a search");
            let (n_out, k) = (first.queries, first.k);
            for (what, n) in [("an empty cloud", 0), ("n < k", k - 1), ("n < n_out", n_out - 1)] {
                let cloud = cloud_of(n);
                for strategy in Strategy::ALL {
                    let case = format!("{} / {strategy} / {what} (n = {n})", kind.name());
                    let tape = outcome(|| {
                        let mut g = Graph::new();
                        let out = net.forward(&mut g, &cloud, strategy, 7);
                        g.value(out.logits).clone()
                    });
                    let session = SessionBuilder::from_network_ref(net.as_ref())
                        .strategy(strategy)
                        .seed(7)
                        .workers(1)
                        .build();
                    let planned = outcome(|| session.infer(&cloud).logits().clone());
                    assert_eq!(planned, tape, "{case}: infer");
                    let streamed = outcome(|| session.frames().infer(&cloud).logits().clone());
                    assert_eq!(streamed, tape, "{case}: streamed");
                    // The session serves on: a full cloud still answers.
                    assert!(session.infer(&full).logits().rows() > 0, "{case}: serves no more");
                }
            }
        }
    });
}
