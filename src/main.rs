//! The `crumbcruncher` binary: see [`crumbcruncher::cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match crumbcruncher::cli::parse(&args) {
        Ok(cli) => match crumbcruncher::cli::run(&cli) {
            Ok(output) => print!("{output}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", crumbcruncher::cli::usage());
            std::process::exit(2);
        }
    }
}
