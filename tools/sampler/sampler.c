/* A sampling profiler loaded with LD_PRELOAD, for hosts without `perf`.
 *
 * Every thread gets a timer of its own: every 100 us of CLOCK_MONOTONIC it
 * raises SIGPROF on that thread, whose handler records the thread id, the
 * interrupted RIP, the word at [RSP] and the frame-pointer chain into a
 * static buffer. The main thread's timer is armed when the library loads;
 * every other thread's by a pthread_create wrapper, as the thread starts,
 * and deleted when its start routine returns. At exit the samples and
 * /proc/self/maps are written to $SAMPLER_OUT (default `sampler.out`) for
 * symbolize.py. Build the target with `-C force-frame-pointers=yes`, or the
 * chains stop at the first frame.
 *
 * With SAMPLER_MALLOC=1 no timer is armed and every malloc, calloc and
 * realloc call is a sample instead: the wrappers below record the frame
 * chain of the caller (leaf `malloc`, `calloc` or `realloc`) in the same
 * format, then forward to __libc_malloc, __libc_calloc or __libc_realloc.
 * Without it they only forward.
 *
 *   gcc -O2 -shared -fPIC -o libsampler.so sampler.c -lrt -ldl -lpthread
 *   LD_PRELOAD=./libsampler.so ./target/release/examples/scenario 2018 rack-scale
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#define WORDS (8u << 20) /* 64 MiB of bss, touched only as it fills */
#define DEPTH 64
#define TLS __thread __attribute__((tls_model("initial-exec")))

/* Each sample is [n, tid, rip, [rsp], return addresses...], n words after
 * n. A thread reserves its words with one atomic add and writes n last, so
 * threads sampled at once never share words; the dump stops at the first
 * record whose n is still 0. */
static uint64_t buf[WORDS];
static size_t used, dropped;

/* The calling thread's id, its timer and the bounds of its stack. The
 * frame walk reads only words between the interrupted RSP and the top of
 * the stack, which are mapped, so garbage in RBP (frames built without
 * frame pointers) ends the walk instead of faulting. */
static TLS uint64_t my_tid;
static TLS uintptr_t stack_lo, stack_hi;
static TLS timer_t my_timer;
static TLS int armed;

static void commit(const uint64_t *s, uint64_t n) {
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    memcpy(&buf[at + 1], s, n * sizeof *s);
    __atomic_store_n(&buf[at], n, __ATOMIC_RELEASE);
}

static void on_tick(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    const ucontext_t *uc = uc_;
    uint64_t s[DEPTH + 3];
    uint64_t n = 0;
    uint64_t rsp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = uc->uc_mcontext.gregs[REG_RBP];
    s[n++] = my_tid;
    s[n++] = uc->uc_mcontext.gregs[REG_RIP];
    s[n++] = 0;
    if (rsp >= stack_lo && rsp + 8 <= stack_hi) {
        s[2] = *(const uint64_t *)rsp;
        while (n < DEPTH + 3 && fp > rsp && fp + 16 <= stack_hi && fp % 8 == 0) {
            const uint64_t *frame = (const uint64_t *)fp;
            if (frame[1] == 0) break;
            s[n++] = frame[1];
            rsp = fp;
            fp = frame[0];
        }
    }
    commit(s, n);
}

/* Records the calling thread's id and stack bounds. */
static void know_thread(void) {
    my_tid = (uint64_t)syscall(SYS_gettid);
    pthread_attr_t attr;
    void *lo;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
    if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
        stack_lo = (uintptr_t)lo;
        stack_hi = (uintptr_t)lo + size;
    }
    pthread_attr_destroy(&attr);
}

/* Set by the constructor when SAMPLER_MALLOC=1, cleared before the dump. */
static int malloc_mode;

/* Arms the calling thread's own SIGPROF timer. */
static void arm(void) {
    know_thread();
    if (__atomic_load_n(&malloc_mode, __ATOMIC_RELAXED)) return;
    struct sigevent ev = {.sigev_notify = SIGEV_THREAD_ID, .sigev_signo = SIGPROF};
    ev.sigev_notify_thread_id = (pid_t)my_tid;
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &my_timer) == 0) {
        armed = 1;
        timer_settime(my_timer, 0, &every, NULL);
    }
}

static void disarm(void) {
    if (armed) timer_delete(my_timer);
    armed = 0;
}

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);

/* A new thread's start routine and argument, handed to its trampoline. */
struct start {
    void *(*routine)(void *);
    void *arg;
};

static void *trampoline(void *p) {
    struct start start = *(struct start *)p;
    __libc_free(p);
    arm();
    void *ret = start.routine(start.arg);
    disarm();
    return ret;
}

int pthread_create(pthread_t *thread, const pthread_attr_t *attr, void *(*routine)(void *),
                   void *arg) {
    static int (*real)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *);
    if (!real) real = dlsym(RTLD_NEXT, "pthread_create");
    struct start *start = __libc_malloc(sizeof *start);
    if (!start) return real(thread, attr, routine, arg);
    start->routine = routine;
    start->arg = arg;
    int err = real(thread, attr, trampoline, start);
    if (err) __libc_free(start);
    return err;
}

/* Set while a thread records: an allocation made meanwhile only forwards. */
static TLS int in_hook;
/* A span of pages of the calling thread known to be mapped, grown as the
 * walk meets new pages. */
static TLS uintptr_t mapped_lo, mapped_hi;

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

/* Records one allocation sample: the thread, `leaf` (the wrapper's own
 * address, so it symbolizes as the wrapper), no [RSP] word, then the
 * return addresses along the frame-pointer chain that starts at the
 * wrapper's frame `fp`. Frames must ascend within 64 MiB above it. */
static void record_alloc(uint64_t leaf, const uint64_t *fp) {
    in_hook = 1;
    uint64_t s[DEPTH + 3];
    uint64_t n = 0;
    s[n++] = my_tid ? my_tid : (uint64_t)syscall(SYS_gettid);
    s[n++] = leaf;
    s[n++] = 0;
    uintptr_t at = (uintptr_t)fp, top = at + (64u << 20);
    while (n < DEPTH + 3 && at < top && at % 8 == 0 && mapped(at)) {
        const uint64_t *frame = (const uint64_t *)at;
        if (frame[1] == 0) break;
        s[n++] = frame[1];
        if (frame[0] <= at) break;
        at = frame[0];
    }
    commit(s, n);
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
        know_thread();
        __atomic_store_n(&malloc_mode, 1, __ATOMIC_RELAXED);
        return;
    }
    struct sigaction sa = {.sa_sigaction = on_tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    arm();
}

__attribute__((destructor)) static void dump(void) {
    __atomic_store_n(&malloc_mode, 0, __ATOMIC_RELAXED);
    disarm();
    signal(SIGPROF, SIG_IGN);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    fprintf(out, "# maps\n");
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    /* Each line: the thread id in decimal, then the sample's words in hex. */
    fprintf(out, "# thread-samples pid %d (dropped %zu)\n", (int)getpid(), dropped);
    size_t end = used < WORDS ? used : WORDS;
    for (size_t i = 0; i < end && buf[i]; i += buf[i] + 1) {
        fprintf(out, "%lu", buf[i + 1]);
        for (uint64_t k = 2; k <= buf[i]; k++) fprintf(out, " %lx", buf[i + k]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
