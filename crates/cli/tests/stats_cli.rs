//! End-to-end check of `sharoes-shell stats ADDR`: boot a real sspd on an
//! ephemeral TCP port, drive a few operations over the wire so the op
//! histograms move, then run the CLI binary as a subprocess and assert its
//! output carries live, nonzero metrics from the server process.

use sharoes_net::{ObjectKey, Request, Response, TcpTransport, Transport};
use sharoes_ssp::{serve, SspServer};

#[test]
fn stats_subcommand_reports_live_server_metrics() {
    let server = SspServer::new().into_shared();
    let handle = serve(server, "127.0.0.1:0").expect("bind sspd");
    let addr = handle.addr().to_string();

    // Drive a small workload so the per-op histograms have samples.
    let mut transport = TcpTransport::connect(&addr).expect("connect");
    for inode in 0..3u64 {
        let key = ObjectKey::metadata(inode, [7; 16]);
        let put = Request::Put { key, value: vec![0xAB; 64 + inode as usize] };
        assert!(matches!(transport.call(&put).expect("put"), Response::Ok));
        let got = transport.call(&Request::Get { key }).expect("get");
        assert!(matches!(got, Response::Object(Some(_))));
    }

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_sharoes-shell"))
        .args(["stats", &addr])
        .output()
        .expect("run sharoes-shell stats");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    assert!(
        output.status.success(),
        "stats exited nonzero: {}\nstdout:\n{stdout}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr),
    );

    // Storage accounting header, then the metrics exposition text.
    assert!(stdout.contains("# sspd"), "missing stats header:\n{stdout}");
    assert!(stdout.contains("3 objects"), "object count wrong:\n{stdout}");
    let count_of = |name: &str| -> u64 {
        stdout
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(count_of("ssp_op_put_ns_count") >= 3, "put histogram silent:\n{stdout}");
    assert!(count_of("ssp_op_get_ns_count") >= 3, "get histogram silent:\n{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("ssp_op_put_ns_bucket{")),
        "latency buckets missing:\n{stdout}"
    );
    assert!(
        count_of("ssp_conns_accepted_total") >= 2,
        "both the workload and the stats CLI connected:\n{stdout}"
    );
}
