//! Fixture: a seeded `thread-spawn-containment` violation — ad-hoc
//! parallelism outside the sanctioned modules.
//!
//! Not compiled — lint corpus only.

fn convert_all(mats: Vec<Matrix>) -> Vec<Converted> {
    let mut handles = Vec::new();
    for m in mats {
        // VIOLATION: stray spawn adds a second level of host threads
        // beside the serve worker pool.
        handles.push(std::thread::spawn(move || convert(m)));
    }
    handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
}
