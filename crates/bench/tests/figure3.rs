//! Figure 3 measures a bad network, not the seeded bugs: under its own
//! parameters no replica crashes, and the slowdown grows with the loss
//! probability wherever requests still complete.

use lfi_bench::figure3_pbft_slowdown;

#[test]
fn slowdown_grows_with_loss_and_no_replica_crashes() {
    let figure = figure3_pbft_slowdown();
    assert!(!figure.points.is_empty());
    for point in &figure.points {
        assert_eq!(
            point.crashes, 0,
            "p = {} crashed replicas",
            point.probability
        );
        assert_eq!(point.slowdown.is_some(), point.completed > 0);
    }
    let slowdowns: Vec<f64> = figure.points.iter().filter_map(|p| p.slowdown).collect();
    assert_eq!(slowdowns.first(), Some(&1.0), "p = 0 is the baseline");
    assert!(
        slowdowns.windows(2).all(|pair| pair[0] <= pair[1]),
        "slowdown falls as loss rises:\n{figure}"
    );
}
