/*
 * sigprof — a preload sampling profiler for hosts without perf.
 *
 * Built and driven by scripts/host-profile.sh. The library arms
 * ITIMER_PROF (process CPU time) at SIGPROF_HZ samples per second
 * (default 1000; the kernel delivers at most one per scheduler tick).
 * Each SIGPROF records the interrupted program counter and, on the main
 * thread, the return addresses reached by walking the frame-pointer
 * chain (the profiled binary is built with -C force-frame-pointers=yes).
 * When the counter is outside the executable — libc's memcpy and malloc
 * keep no frame pointer, so the chain skips their caller — the nearest
 * word above the stack pointer that points into the executable's text is
 * recorded first as the probable caller. At exit it writes the file-backed
 * mappings and the raw samples to $SIGPROF_OUT (default sigprof.out);
 * scripts/sigprof-report.py symbolizes them with addr2line.
 *
 * Nothing in the handler allocates, locks or calls into libc beyond an
 * atomic increment. A frame address is dereferenced only when it lies
 * on the main thread's stack above the interrupted stack pointer, so a
 * function that uses rbp as a scratch register ends the walk instead of
 * faulting.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 18)
#define DEPTH 24

struct sample {
    uint64_t pc[DEPTH]; /* pc[0] interrupted, pc[1..] return addresses; 0 ends */
};

static struct sample *samples;
static volatile uint32_t taken;
static uint64_t stack_lo, stack_hi;
static uint64_t text_lo, text_hi; /* the executable's own code */
#define CALLER_SCAN_WORDS 48

static void on_sigprof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    ucontext_t *uc = ctx;
    uint32_t slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES)
        return;
    struct sample *s = &samples[slot];
    uint64_t sp = (uint64_t)uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = (uint64_t)uc->uc_mcontext.gregs[REG_RBP];
    int n = 0;
    s->pc[n++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    if (sp >= stack_lo && sp < stack_hi) {
        if (s->pc[0] < text_lo || s->pc[0] >= text_hi) {
            const uint64_t *word = (const uint64_t *)(sp & ~7ull);
            for (int i = 0; i < CALLER_SCAN_WORDS && (uint64_t)(word + 1) <= stack_hi; i++, word++) {
                if (*word >= text_lo && *word < text_hi) {
                    s->pc[n++] = *word;
                    break;
                }
            }
        }
        uint64_t floor = sp;
        while (n < DEPTH && fp >= floor && fp + 16 <= stack_hi && (fp & 7) == 0) {
            uint64_t ret = ((uint64_t *)fp)[1];
            if (ret == 0)
                break;
            s->pc[n++] = ret;
            floor = fp + 16; /* frames must move up the stack */
            fp = ((uint64_t *)fp)[0];
        }
    }
    if (n < DEPTH)
        s->pc[n] = 0;
}

/* The [stack] mapping grows downward on demand, so only its top is read
 * from the maps; the bottom is the stack limit below it. */
static void find_stack_and_text(void)
{
    char exe[400];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (sscanf(line, "%lx-%lx", &lo, &hi) != 2)
            continue;
        if (strstr(line, "[stack]"))
            stack_hi = hi;
        else if (len > 0 && strstr(line, " r-xp ") && strstr(line, exe) && !text_hi)
            text_lo = lo, text_hi = hi;
    }
    if (maps)
        fclose(maps);
    struct rlimit lim;
    uint64_t size = 8u << 20;
    if (getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY)
        size = lim.rlim_cur;
    stack_lo = stack_hi > size ? stack_hi - size : 0;
}

static void dump(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) {
        /* file-backed mappings: "lo-hi perms offset dev inode path" */
        if (strchr(line, '/'))
            fprintf(out, "map %s", line);
    }
    if (maps)
        fclose(maps);
    uint32_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "samples %u dropped %u\n", n, taken - n);
    for (uint32_t i = 0; i < n; i++) {
        fputs("s", out);
        for (int d = 0; d < DEPTH && samples[i].pc[d]; d++)
            fprintf(out, " %lx", (unsigned long)samples[i].pc[d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void)
{
    samples = mmap(NULL, sizeof(struct sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (samples == MAP_FAILED)
        return;
    find_stack_and_text();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const char *hz_env = getenv("SIGPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz <= 0 || hz > 10000)
        hz = 1000;
    struct itimerval tick = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &tick, NULL);
    atexit(dump);
}
