/* Peak resident set size of the terminated, waited-for children of
   this process: the largest ru_maxrss among them, in KiB. OCaml's
   Unix library exposes no getrusage. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

value xbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
