/* A sampling profiler loaded with LD_PRELOAD, for hosts without `perf`.
 *
 * Every 100 us of CLOCK_MONOTONIC a SIGPROF handler records the
 * interrupted RIP, the word at [RSP] and the frame-pointer chain into a
 * static buffer. At exit the samples and /proc/self/maps are written to
 * $SAMPLER_OUT (default `sampler.out`) for symbolize.py. Build the target
 * with `-C force-frame-pointers=yes`, or the chains stop at the first frame.
 *
 *   gcc -O2 -shared -fPIC -o libsampler.so sampler.c -lrt
 *   LD_PRELOAD=./libsampler.so ./target/release/examples/scenario 2018 rack-scale
 */
#define _GNU_SOURCE
#include <setjmp.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>

#define WORDS (8u << 20) /* 64 MiB of bss, touched only as it fills */
#define DEPTH 64

/* Each sample is [n, rip, [rsp], return addresses...], n words after n. */
static uint64_t buf[WORDS];
static size_t used, dropped;
static int busy;
static sigjmp_buf probe;

static void on_fault(int sig) { siglongjmp(probe, sig); }

static void on_tick(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    const ucontext_t *uc = uc_;
    if (__atomic_exchange_n(&busy, 1, __ATOMIC_ACQUIRE)) { dropped++; return; }
    if (used + DEPTH + 3 > WORDS) { dropped++; __atomic_store_n(&busy, 0, __ATOMIC_RELEASE); return; }
    uint64_t *s = &buf[used];
    volatile uint64_t n = 0;
    uint64_t rsp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = uc->uc_mcontext.gregs[REG_RBP];
    s[++n] = uc->uc_mcontext.gregs[REG_RIP];
    s[++n] = 0;
    /* Frames of code built without frame pointers leave garbage in RBP:
     * a fault while following it ends the walk instead of the process. */
    struct sigaction catch = {.sa_handler = on_fault}, segv, bus;
    sigaction(SIGSEGV, &catch, &segv);
    sigaction(SIGBUS, &catch, &bus);
    if (sigsetjmp(probe, 1) == 0) {
        s[2] = *(const uint64_t *)rsp;
        while (n < DEPTH + 1 && fp > rsp && fp % 8 == 0) {
            const uint64_t *frame = (const uint64_t *)fp;
            if (frame[1] == 0) break;
            s[++n] = frame[1];
            rsp = fp;
            fp = frame[0];
        }
    }
    sigaction(SIGSEGV, &segv, NULL);
    sigaction(SIGBUS, &bus, NULL);
    s[0] = n;
    used += n + 1;
    __atomic_store_n(&busy, 0, __ATOMIC_RELEASE);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    timer_t timer;
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    signal(SIGPROF, SIG_IGN);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    fprintf(out, "# maps\n");
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fprintf(out, "# samples (dropped %zu)\n", dropped);
    for (size_t i = 0; i < used; i += buf[i] + 1) {
        for (uint64_t k = 1; k <= buf[i]; k++) fprintf(out, k > 1 ? " %lx" : "%lx", buf[i + k]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
