/* Strict alternation between the benchmarked program and a reference
   kernel running in a helper process.

   A per-thread POSIX timer raises SIGALRM on the main thread after each
   work slice. The handler closes the slice, wakes the helper through a
   pipe, blocks until the helper reports how long one fixed quantum of
   the reference kernel took, and re-arms the timer. The handler is
   plain C: it never enters the OCaml runtime, so the program's heap and
   GC counters are the same with or without the alternation.

   Each work slice is normalised by the kernel quantum that preceded it:
   normalised = raw * nominal / measured. Reads close nothing: the open
   slice is scaled by the same factor the handler will use, so two
   reads in the same slice and reads across a handoff are consistent. */

#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

static int fd_go = -1, fd_done = -1;
static timer_t timer;
static int timer_made = 0;
static int64_t slice_ns = 10000000;
static double nominal_ns = 1.0;
static volatile sig_atomic_t active = 0;

static int64_t last_resume;  /* start of the open work slice */
static int64_t work_closed;  /* raw ns of closed work slices */
static double norm_closed;   /* normalised ns of closed work slices */
static int64_t kernel_total; /* measured ns of all kernel quanta */
static int64_t quanta;
static double factor = 1.0;  /* nominal / measured of the last quantum */

static int64_t now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int xfer(int fd, void *buf, size_t n, int writing)
{
  char *p = buf;
  while (n > 0) {
    ssize_t r = writing ? write(fd, p, n) : read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return -1;
    p += r;
    n -= (size_t)r;
  }
  return 0;
}

static void arm(void)
{
  struct itimerspec its;
  memset(&its, 0, sizeof its);
  its.it_value.tv_sec = slice_ns / 1000000000LL;
  its.it_value.tv_nsec = slice_ns % 1000000000LL;
  timer_settime(timer, 0, &its, NULL);
}

/* Hand the CPU to the helper for one quantum; false if it is gone. */
static int run_quantum(void)
{
  char go = 'g';
  int64_t k;
  if (xfer(fd_go, &go, 1, 1) < 0 || xfer(fd_done, &k, sizeof k, 0) < 0 || k <= 0)
    return 0;
  kernel_total += k;
  quanta++;
  factor = nominal_ns / (double)k;
  return 1;
}

static void on_alarm(int sig)
{
  int saved = errno;
  (void)sig;
  if (active) {
    int64_t t = now_ns();
    work_closed += t - last_resume;
    norm_closed += (double)(t - last_resume) * factor;
    if (run_quantum()) {
      last_resume = now_ns();
      arm();
    } else {
      last_resume = now_ns();
      active = 0;
    }
  }
  errno = saved;
}

static void block_alarm(sigset_t *old)
{
  sigset_t s;
  sigemptyset(&s);
  sigaddset(&s, SIGALRM);
  pthread_sigmask(SIG_BLOCK, &s, old);
}

static void restore_mask(sigset_t *old) { pthread_sigmask(SIG_SETMASK, old, NULL); }

value ts_start(value go, value done, value slice, value nominal)
{
  struct sigaction sa;
  struct sigevent sev;
  if (active) caml_failwith("Timeshare.start: already running");
  fd_go = Int_val(go);
  fd_done = Int_val(done);
  slice_ns = Long_val(slice);
  nominal_ns = Double_val(nominal);
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_alarm;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, NULL) != 0) caml_failwith("Timeshare.start: sigaction");
  if (!timer_made) {
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGALRM;
    sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
      caml_failwith("Timeshare.start: timer_create");
    timer_made = 1;
  }
  if (!run_quantum()) caml_failwith("Timeshare.start: helper did not answer");
  last_resume = now_ns();
  active = 1;
  arm();
  return Val_unit;
}

value ts_stop(value unit)
{
  sigset_t old;
  (void)unit;
  block_alarm(&old);
  if (active) {
    int64_t t = now_ns();
    struct itimerspec its;
    work_closed += t - last_resume;
    norm_closed += (double)(t - last_resume) * factor;
    last_resume = t;
    active = 0;
    memset(&its, 0, sizeof its);
    timer_settime(timer, 0, &its, NULL);
  }
  restore_mask(&old);
  return Val_unit;
}

/* Seconds of work so far (raw), of work scaled to reference speed
   (normalised) and of kernel quanta; and CLOCK_MONOTONIC itself. */
double ts_raw(value unit)
{
  sigset_t old;
  double r;
  (void)unit;
  block_alarm(&old);
  r = (double)(work_closed + (active ? now_ns() - last_resume : 0)) * 1e-9;
  restore_mask(&old);
  return r;
}

double ts_norm(value unit)
{
  sigset_t old;
  double r;
  (void)unit;
  block_alarm(&old);
  r = (norm_closed + (active ? (double)(now_ns() - last_resume) * factor : 0.0)) * 1e-9;
  restore_mask(&old);
  return r;
}

double ts_kernel(value unit)
{
  (void)unit;
  return (double)kernel_total * 1e-9;
}

double ts_factor(value unit)
{
  (void)unit;
  return factor;
}

intnat ts_quanta(value unit)
{
  (void)unit;
  return (intnat)quanta;
}

double ts_monotonic(value unit)
{
  (void)unit;
  return (double)now_ns() * 1e-9;
}

value ts_raw_byte(value u) { return caml_copy_double(ts_raw(u)); }
value ts_norm_byte(value u) { return caml_copy_double(ts_norm(u)); }
value ts_kernel_byte(value u) { return caml_copy_double(ts_kernel(u)); }
value ts_factor_byte(value u) { return caml_copy_double(ts_factor(u)); }
value ts_quanta_byte(value u) { return Val_long(ts_quanta(u)); }
value ts_monotonic_byte(value u) { return caml_copy_double(ts_monotonic(u)); }
