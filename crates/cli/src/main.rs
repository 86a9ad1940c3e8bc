//! The `jmpax` command-line tool.

use jmpax_cli::args::Args;
use jmpax_cli::commands;

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    // `check` reads its trace file here so the command layer stays pure
    // (and unit-testable).
    let trace = args.get("trace").map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("jmpax: cannot read trace `{path}`: {e}");
            std::process::exit(2);
        })
    });
    let result = commands::run_with_telemetry(&args, trace.as_deref());
    print!("{}", result.output);
    if let Some(report) = result.telemetry {
        eprint!("{report}");
    }
    if let Some(serve) = result.serve {
        let server = jmpax_telemetry::serve::MetricsServer::bind(serve.port).unwrap_or_else(|e| {
            eprintln!("jmpax: cannot bind 127.0.0.1:{}: {e}", serve.port);
            std::process::exit(2);
        });
        if let Ok(addr) = server.local_addr() {
            eprintln!("serving metrics on http://{addr}/metrics (and /trace); Ctrl-C to stop");
        }
        server.serve(&commands::metrics_routes(&serve), None);
    }
    std::process::exit(result.code);
}
