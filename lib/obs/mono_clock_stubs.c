/* Monotonic clock primitive for Registry.now_ns.
 *
 * CLOCK_MONOTONIC never steps (NTP slews it but cannot jump it), so span
 * durations and telemetry timestamps taken from it are never negative
 * and order correctly even if the host's wall clock is adjusted mid-run.  Nanoseconds since an unspecified
 * epoch fit comfortably in OCaml's 63-bit int (~146 years). */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value csync_mono_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) {
    /* No plausible failure mode on Linux; keep the primitive total. */
    return Val_long(0);
  }
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
