//! Panic isolation, end to end through the public service API: an
//! injected compile panic must fail only the request that compiled it,
//! with a classified `panic` error, increment `panics_caught`, and leave
//! the service fully functional — the promise the TCP front end builds
//! on. Concurrent requests racing on the poisoned pattern each compile,
//! and each catch their own panic.
//!
//! Own integration binary: the fault hook and the telemetry counter it
//! asserts on are process-global, so this must not share a process with
//! other instrumented tests.

use queryvis_service::{fault, DiagramService, ErrorKind, Format, Request, ServiceConfig};
use std::sync::{Barrier, Once};

/// Swallow the *expected* injected-panic backtraces while letting real
/// test failures print normally.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected compile panic") {
                previous(info);
            }
        }));
    });
}

#[test]
fn injected_compile_panic_fails_one_request_not_the_process() {
    quiet_injected_panics();
    fault::arm_compile_panic("Poisoned_Tbl_xyzzy");

    let service = DiagramService::new(ServiceConfig::default());
    let poisoned = Request {
        id: 7,
        sql: "SELECT P.a FROM Poisoned_Tbl_xyzzy P WHERE P.a = 1".to_string(),
        formats: vec![Format::Ascii],
        rows: None,
    };
    let response = service.handle(&poisoned);
    let err = response
        .outcome
        .as_ref()
        .expect_err("injected panic must surface as an error response");
    assert_eq!(err.kind, ErrorKind::Panic);
    assert!(err.message.contains("panicked"), "message: {}", err.message);
    let line = response.to_json_line();
    assert!(
        line.contains("\"error_kind\":\"panic\""),
        "wire line must carry the classification: {line}"
    );

    // The panic was counted.
    assert_eq!(service.stats().panics_caught, 1);

    // Racers on the poisoned text each compile, each catch their own
    // panic and each answer `panic`; nothing is cached. (They race before
    // the healthy text below, which is pattern-equivalent and would
    // otherwise serve them from L2.)
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        let racers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    service.handle(&poisoned)
                })
            })
            .collect();
        for racer in racers {
            let response = racer.join().expect("a racer's panic is caught");
            let err = response.outcome.expect_err("every racer fails");
            assert_eq!(err.kind, ErrorKind::Panic);
        }
    });
    let stats = service.stats();
    assert_eq!(
        stats.panics_caught, stats.compiles,
        "every compile panicked"
    );
    assert_eq!(stats.cache.entries, 0, "a failed compile is not cached");
    let panics = stats.panics_caught;

    // The service keeps serving other queries.
    let healthy = Request {
        id: 8,
        sql: "SELECT T.a FROM T WHERE T.a = 1".to_string(),
        formats: vec![Format::Ascii],
        rows: None,
    };
    assert!(service.handle(&healthy).outcome.is_ok());

    // The panicking compiles left nothing behind: disarmed, the very same
    // SQL is served (from the entry its pattern-equivalent healthy text
    // put in L2) without a new panic.
    fault::disarm_compile_panic();
    let retry = service.handle(&poisoned);
    assert!(
        retry.outcome.is_ok(),
        "disarmed retry must succeed: {:?}",
        retry.outcome.err()
    );
    assert_eq!(
        service.stats().panics_caught,
        panics,
        "no new panics after disarm"
    );
}
