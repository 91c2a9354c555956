// Fork/exec harness shared by the end-to-end vpmem_cli tests (binary path
// via VPMEM_CLI_PATH): runs one invocation inside a scratch directory, so
// relative file arguments land there, and captures its exit status, stdout
// and stderr.  A pending alarm survives exec, so an invocation that
// outlives its deadline dies by SIGALRM and reports as -SIGALRM.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace vpmem::cli_test {

namespace fs = std::filesystem;

/// Scratch directory for one test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_{fs::temp_directory_path() /
              ("vpmem_cli_" + name + "_" + std::to_string(::getpid()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

inline std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct CliRun {
  int exit_code = 0;  ///< exit status, or -signal when the process was killed
  std::string out;
  std::string err;
};

/// Start `vpmem_cli args...` with `dir` as its working directory; one
/// invocation per directory at a time.  finish_cli() collects it.
inline pid_t start_cli_in(const TempDir& dir, const std::vector<std::string>& args,
                          unsigned timeout_seconds = 60) {
  static const std::string cli = VPMEM_CLI_PATH;
  const std::string out_path = dir.file(".stdout");
  const std::string err_path = dir.file(".stderr");
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || ::chdir(dir.path().c_str()) != 0) ::_exit(126);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::alarm(timeout_seconds);
    ::execv(cli.c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

inline CliRun finish_cli(pid_t pid, const TempDir& dir) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  CliRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  run.out = slurp(dir.file(".stdout"));
  run.err = slurp(dir.file(".stderr"));
  return run;
}

/// Run `vpmem_cli args...` with `dir` as its working directory.
inline CliRun run_cli_in(const TempDir& dir, const std::vector<std::string>& args,
                         unsigned timeout_seconds = 60) {
  return finish_cli(start_cli_in(dir, args, timeout_seconds), dir);
}

}  // namespace vpmem::cli_test
