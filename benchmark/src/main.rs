fn main() -> std::process::ExitCode {
    dcdb_benchmark::cli::main()
}
