/* A sampling profiler for scripts/profile.sh, loaded with LD_PRELOAD.
 *
 * A CLOCK_MONOTONIC timer raises SIGPROF at 10 kHz. Each sample records
 * the interrupted RIP, the word at RSP (the return address when a
 * frameless libc leaf such as memcpy was interrupted) and the return
 * addresses of the frame-pointer chain, as `n, word[n]` in native u64s
 * to $PROFILE_OUT. At exit the process's mappings go to
 * $PROFILE_OUT.maps, so the report can tell the executable's addresses
 * from a shared library's. Without $PROFILE_OUT it does nothing. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 64
static uint64_t buf[1 << 16];
static size_t used;
static int out = -1;
static timer_t timer;

static void flush(void) {
    if (used && write(out, buf, used * sizeof buf[0]) < 0) {}
    used = 0;
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t rsp = r[REG_RSP], *fp = (uint64_t *)r[REG_RBP], n = 0;
    if (used + DEPTH + 3 > sizeof buf / sizeof buf[0]) flush();
    uint64_t *rec = &buf[used];
    rec[++n] = r[REG_RIP];
    rec[++n] = *(uint64_t *)rsp;
    /* Follow saved frame pointers while they stay on this stack and climb. */
    while (n < DEPTH + 2 && (uint64_t)fp >= rsp && (uint64_t)fp - rsp < (8u << 20) &&
           ((uint64_t)fp & 7) == 0) {
        rec[++n] = fp[1];
        if ((uint64_t *)fp[0] <= fp) break;
        fp = (uint64_t *)fp[0];
    }
    rec[0] = n;
    used += n + 1;
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("PROFILE_OUT");
    if (!path || (out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644)) < 0) return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (out < 0) return;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    flush();
    close(out);
    char path[4096], b[4096];
    snprintf(path, sizeof path, "%s.maps", getenv("PROFILE_OUT"));
    int in = open("/proc/self/maps", O_RDONLY), m = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    for (ssize_t k; in >= 0 && m >= 0 && (k = read(in, b, sizeof b)) > 0;)
        if (write(m, b, k) < 0) break;
}
