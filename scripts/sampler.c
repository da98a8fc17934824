/* A SIGPROF stack sampler for scripts/profile.sh, loaded with LD_PRELOAD.
 *
 * At 1 kHz of process CPU time it walks the interrupted thread's rbp chain
 * (the binary is built with -C force-frame-pointers=yes) into a static
 * buffer; at exit it writes `sampler.<pid>.out` in the working directory:
 * one line per sample, `pc ret ret ...` in hex, then `maps` and a copy of
 * /proc/self/maps. Resolving is the script's business.
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 63
#define SAMPLES (1 << 17) /* 64 MB, two minutes at 1 kHz; pages touched only when used */
#define STACK_SPAN (64u << 20) /* a frame pointer this far above sp is junk */

/* One record per sample, `[n, pc, ret...]`; threads reserve theirs atomically. */
static uint64_t buf[SAMPLES][DEPTH + 1];
static size_t used;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
    uint64_t sp = mc->gregs[REG_RSP], fp = mc->gregs[REG_RBP];
    size_t at = __atomic_fetch_add(&used, 1, __ATOMIC_RELAXED);
    if (at >= SAMPLES) return;
    uint64_t *rec = buf[at], n = 0;
    rec[1 + n++] = mc->gregs[REG_RIP];
    /* Each frame is [saved rbp, return address]; a chain that leaves the
     * stack, goes down or loses alignment (a function without a frame
     * pointer used rbp as a register) ends the walk. */
    while (n < DEPTH && fp >= sp && fp - sp < STACK_SPAN && !(fp & 7)) {
        const uint64_t *frame = (const uint64_t *)fp;
        if (frame[1] == 0) break;
        rec[1 + n++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    rec[0] = n;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char name[64];
    snprintf(name, sizeof name, "sampler.%d.out", (int)getpid());
    FILE *out = fopen(name, "w");
    if (!out) return;
    size_t n = used < SAMPLES ? used : SAMPLES;
    for (size_t at = 0; at < n; at++) {
        for (uint64_t i = 1; i <= buf[at][0]; i++)
            fprintf(out, i > 1 ? " %lx" : "%lx", (unsigned long)buf[at][i]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (maps) fclose(maps);
    fclose(out);
}
