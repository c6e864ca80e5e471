/* A sampling profiler loaded with LD_PRELOAD, for hosts without `perf`.
 *
 * Every 100 us of CLOCK_MONOTONIC a SIGPROF handler records the
 * interrupted RIP, the word at [RSP] and the frame-pointer chain into a
 * static buffer. At exit the samples and /proc/self/maps are written to
 * $SAMPLER_OUT (default `sampler.out`) for symbolize.py. Build the target
 * with `-C force-frame-pointers=yes`, or the chains stop at the first frame.
 *
 * With SAMPLER_MALLOC=1 the timer stays off and every malloc, calloc and
 * realloc call is a sample instead: the wrappers below record the frame
 * chain of the caller (leaf `malloc`, `calloc` or `realloc`) in the same
 * format, then forward to __libc_malloc, __libc_calloc or __libc_realloc.
 * Without it they only forward.
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
#include <sys/mman.h>
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

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

/* Set by the constructor when SAMPLER_MALLOC=1, cleared before the dump. */
static int malloc_mode;
/* Set while a thread records: an allocation made meanwhile only forwards. */
static __thread int in_hook;
/* A span of pages of the calling thread known to be mapped, grown as the
 * walk meets new pages. */
static __thread uintptr_t mapped_lo, mapped_hi;

/* Whether the 16 bytes of a frame record at `at` lie in mapped pages. Code
 * without frame pointers leaves garbage in RBP; an unmapped "frame" ends
 * the walk instead of faulting. No lock and no allocation is taken here:
 * the runtime may be inside pthread_getattr_np when it calls malloc. */
static int mapped(uintptr_t at) {
    for (uintptr_t page = at & ~(uintptr_t)4095; page < at + 16; page += 4096) {
        unsigned char resident;
        if (page >= mapped_lo && page < mapped_hi) continue;
        if (mincore((void *)page, 4096, &resident) != 0) return 0;
        if (page == mapped_hi) {
            mapped_hi += 4096;
        } else if (page + 4096 == mapped_lo) {
            mapped_lo = page;
        } else {
            mapped_lo = page;
            mapped_hi = page + 4096;
        }
    }
    return 1;
}

/* Records one allocation sample: `leaf` (the wrapper's own address, so it
 * symbolizes as the wrapper), no [RSP] word, then the return addresses
 * along the frame-pointer chain that starts at the wrapper's frame `fp`.
 * Frames must ascend within 64 MiB above it. */
static void record_alloc(uint64_t leaf, const uint64_t *fp) {
    in_hook = 1;
    if (__atomic_exchange_n(&busy, 1, __ATOMIC_ACQUIRE)) { dropped++; in_hook = 0; return; }
    if (used + DEPTH + 3 > WORDS) {
        dropped++;
    } else {
        uint64_t *s = &buf[used];
        uint64_t n = 0;
        s[++n] = leaf;
        s[++n] = 0;
        uintptr_t at = (uintptr_t)fp, top = at + (64u << 20);
        while (n < DEPTH + 1 && at < top && at % 8 == 0 && mapped(at)) {
            const uint64_t *frame = (const uint64_t *)at;
            if (frame[1] == 0) break;
            s[++n] = frame[1];
            if (frame[0] <= at) break;
            at = frame[0];
        }
        s[0] = n;
        used += n + 1;
    }
    __atomic_store_n(&busy, 0, __ATOMIC_RELEASE);
    in_hook = 0;
}

#define RECORDING (__atomic_load_n(&malloc_mode, __ATOMIC_RELAXED) && !in_hook)

void *malloc(size_t size) {
    if (RECORDING) record_alloc((uint64_t)(uintptr_t)&malloc, __builtin_frame_address(0));
    return __libc_malloc(size);
}

void *calloc(size_t count, size_t size) {
    if (RECORDING) record_alloc((uint64_t)(uintptr_t)&calloc, __builtin_frame_address(0));
    return __libc_calloc(count, size);
}

void *realloc(void *ptr, size_t size) {
    if (RECORDING) record_alloc((uint64_t)(uintptr_t)&realloc, __builtin_frame_address(0));
    return __libc_realloc(ptr, size);
}

__attribute__((constructor)) static void start(void) {
    const char *mode = getenv("SAMPLER_MALLOC");
    if (mode && mode[0] == '1') {
        __atomic_store_n(&malloc_mode, 1, __ATOMIC_RELAXED);
        return;
    }
    struct sigaction sa = {.sa_sigaction = on_tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    timer_t timer;
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    __atomic_store_n(&malloc_mode, 0, __ATOMIC_RELAXED);
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
