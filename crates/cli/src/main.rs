//! `cfdclean` binary entry point: parse, dispatch, exit 1 on error.

#![forbid(unsafe_code)]

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = cfd_cli::dispatch(&argv, &mut stdout) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
