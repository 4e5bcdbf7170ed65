/* CPU affinity of the calling thread, as an OCaml int bit set over the
   first 62 CPUs.  Used to run point-mix's server and client on one CPU:
   a serial ping-pong otherwise pays a cross-CPU wake-up per request or
   not, depending on where the scheduler happened to place the two. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perf_get_affinity(value unit)
{
  cpu_set_t set;
  long mask = 0;
  (void)unit;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(0);
  for (int i = 0; i < 62; i++)
    if (CPU_ISSET(i, &set)) mask |= 1L << i;
  return Val_long(mask);
}

value perf_set_affinity(value v)
{
  cpu_set_t set;
  long mask = Long_val(v);
  CPU_ZERO(&set);
  for (int i = 0; i < 62; i++)
    if (mask & (1L << i)) CPU_SET(i, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
