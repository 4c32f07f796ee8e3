// sweepbench_spawn — runs one command and reports its own resource usage.
//
//   sweepbench_spawn <stdout-file> <program> [args...]
//
// Forks, sends the child's stdout to <stdout-file> and its stderr to
// /dev/null, execs the program, waits for it with wait4() and prints one
// line: "<exit code> <wall s> <user s> <sys s> <max rss KiB>". The exit
// code is 128 + signal for a child killed by a signal, 127 when exec fails.
//
// Why a helper: Linux records the pre-exec address space's peak RSS into
// the new process's ru_maxrss, so a child forked (or vforked) straight from
// the benchmark's Python process reports at least Python's own peak. Forked
// from this small process, the child's ru_maxrss is its own.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>

namespace {

double seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: sweepbench_spawn <stdout-file> <program> "
                         "[args...]\n");
    return 2;
  }
  const double start = now_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 2;
  }
  if (pid == 0) {
    const int out = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = open("/dev/null", O_WRONLY);
    if (out < 0 || null < 0 || dup2(out, 1) < 0 || dup2(null, 2) < 0) {
      _exit(127);
    }
    execvp(argv[2], argv + 2);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return 2;
  }
  const double wall = now_s() - start;
  const int code = WIFEXITED(status)     ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                         : 255;
  std::printf("%d %.9f %.6f %.6f %ld\n", code, wall, seconds(usage.ru_utime),
              seconds(usage.ru_stime), usage.ru_maxrss);
  return 0;
}
