// The kg_ingest_query workload; see kg.cc.
#ifndef PERFBENCH_KG_H_
#define PERFBENCH_KG_H_

#include "bench.h"

namespace perfbench {

RunResult RunKg(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_KG_H_
