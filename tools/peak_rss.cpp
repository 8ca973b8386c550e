// peak_rss: runs a command and reports its own peak resident set size.
//
//   peak_rss PROGRAM [ARGS...]
//
// Prints "peak_rss_kb N" to stderr once PROGRAM exits and exits with its
// status (128 + signal number if a signal killed it). On exec Linux starts
// the new image's peak at the peak of the process that exec'd, which a fork
// copies from its parent: a child forked straight from a Python runner never
// reads below the runner's own RSS. This launcher is small, so the peak it
// reads for its child is the child's own.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: peak_rss PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("peak_rss: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[1], argv + 1);
    std::perror("peak_rss: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("peak_rss: wait4");
    return 2;
  }
  std::fprintf(stderr, "peak_rss_kb %ld\n", usage.ru_maxrss);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
