/*
 * allocprof — a preload allocation-site profiler, sigprof.c's sibling.
 *
 * Built and driven by scripts/host-allocs.sh. The library interposes
 * malloc, calloc, realloc and posix_memalign (everything Rust's `System`
 * allocator calls), forwards each to glibc's own entry point and records
 * the event's size against the frame-pointer stack that made it (the
 * profiled binary is built with -C force-frame-pointers=yes, this file
 * with -fno-omit-frame-pointer, so the chain starts at the caller of
 * malloc itself). Events are folded as they happen into an mmap'ed table
 * keyed by stack — a ten-second run makes millions of events on a few
 * thousand distinct stacks — and at exit the file-backed mappings and one
 * line per stack are written to $ALLOCPROF_OUT (default allocprof.out):
 *
 *     map <a line of /proc/self/maps>
 *     stacks <n> dropped <events that found the table full>
 *     a <events> <bytes> <pc> <pc> ...      innermost return address first
 *
 * scripts/sigprof-report.py symbolizes it like a sigprof dump, weighting
 * each stack by its events and adding a bytes column.
 *
 * Recording never allocates. A frame address is dereferenced only when it
 * lies on the calling thread's stack above the previous frame, so code that
 * uses rbp as a scratch register — the precompiled standard library keeps
 * no frame pointers — ends the walk instead of faulting. The dump's own
 * allocations are forwarded but not recorded.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void *__libc_stack_end;

#define DEPTH 40
#define SLOTS (1u << 15) /* power of two; the table is full at 3/4 */

struct site {
    uint64_t events, bytes;
    uint32_t depth; /* 0 = free slot */
    uint64_t pc[DEPTH];
};

static struct site *sites;
static uint32_t used;
static uint64_t dropped;
static volatile char lock;
static __thread int busy;
static __thread uint64_t stack_hi; /* 0 until looked up */

/* Every frame of the calling thread lies below this address, and what lies
 * between is mapped. The main thread's stack ends at glibc's
 * __libc_stack_end; any other thread's stack is one mapping with the
 * thread's static TLS block — this very variable, under the initial-exec
 * model the library is built with — at its top. (pthread_getattr_np would
 * say the same, but it takes the thread's own lock and allocates, and Rust's
 * runtime calls it at start-up: re-entered from here it never returns.) */
static void find_stack(void)
{
    stack_hi = getpid() == syscall(SYS_gettid) ? (uint64_t)__libc_stack_end : (uint64_t)&stack_hi;
}

/* `fp` is the interposed function's own frame, `ret` its return address. */
static void record(size_t size, uint64_t fp, uint64_t ret)
{
    if (busy || !sites)
        return;
    busy = 1;
    if (!stack_hi)
        find_stack();
    uint64_t pc[DEPTH];
    uint32_t n = 0;
    pc[n++] = ret;
    uint64_t floor = fp + 16; /* frames must move up the stack */
    fp = ((uint64_t *)fp)[0];
    while (n < DEPTH && fp >= floor && fp + 16 <= stack_hi && (fp & 7) == 0) {
        uint64_t r = ((uint64_t *)fp)[1];
        if (r == 0)
            break;
        pc[n++] = r;
        floor = fp + 16;
        fp = ((uint64_t *)fp)[0];
    }
    uint64_t h = 1469598103934665603ull;
    for (uint32_t i = 0; i < n; i++)
        h = (h ^ pc[i]) * 1099511628211ull;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    for (uint32_t at = (uint32_t)(h >> 20);; at++) {
        struct site *s = &sites[at & (SLOTS - 1)];
        if (s->depth == 0) {
            if (used >= SLOTS / 4 * 3) {
                dropped++;
                break;
            }
            used++;
            s->depth = n;
            memcpy(s->pc, pc, n * sizeof pc[0]);
        } else if (s->depth != n || memcmp(s->pc, pc, n * sizeof pc[0]) != 0) {
            continue;
        }
        s->events++;
        s->bytes += size;
        break;
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
    busy = 0;
}

#define RECORD(size) \
    record((size), (uint64_t)__builtin_frame_address(0), (uint64_t)__builtin_return_address(0))

void *malloc(size_t size)
{
    RECORD(size);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size)
{
    RECORD(n * size);
    return __libc_calloc(n, size);
}

void *realloc(void *old, size_t size)
{
    RECORD(size);
    return __libc_realloc(old, size);
}

int posix_memalign(void **out, size_t align, size_t size)
{
    if (align % sizeof(void *) != 0 || (align & (align - 1)) != 0 || align == 0)
        return EINVAL;
    RECORD(size);
    void *p = __libc_memalign(align, size);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

static void dump(void)
{
    busy = 1; /* this thread records nothing from here on */
    const char *path = getenv("ALLOCPROF_OUT");
    FILE *out = fopen(path ? path : "allocprof.out", "w");
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
    fprintf(out, "stacks %u dropped %lu\n", used, (unsigned long)dropped);
    for (uint32_t i = 0; i < SLOTS; i++) {
        const struct site *s = &sites[i];
        if (s->depth == 0)
            continue;
        fprintf(out, "a %lu %lu", (unsigned long)s->events, (unsigned long)s->bytes);
        for (uint32_t d = 0; d < s->depth; d++)
            fprintf(out, " %lx", (unsigned long)s->pc[d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void)
{
    void *table = mmap(NULL, sizeof(struct site) * SLOTS, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (table == MAP_FAILED)
        return;
    atexit(dump);
    sites = table;
}
