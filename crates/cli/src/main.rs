//! `cfdclean` binary entry point: parse, dispatch, exit 1 on error (a
//! closed stdout ends the run quietly with 0).

#![forbid(unsafe_code)]

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = cfd_cli::dispatch(&argv, &mut stdout) {
        // A reader that closed stdout (`| head`) wants no more output.
        let io_kind = e.downcast_ref::<std::io::Error>().map(|e| e.kind());
        if io_kind == Some(std::io::ErrorKind::BrokenPipe) {
            return;
        }
        eprintln!("{e}");
        std::process::exit(1);
    }
}
