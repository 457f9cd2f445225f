// Figure 3 (a-d): local-clustering-coefficient CCDF of the original graph
// vs synthetic graphs from FCL, TCL and TriCycLe (non-private fits).
//
// Paper shape to reproduce: FCL's clustering collapses toward zero; TCL and
// TriCycLe track the original distribution, with TriCycLe at least as close
// on most datasets.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/eval/utility_report.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/triangle_count.h"
#include "src/models/bter.h"
#include "src/models/chung_lu.h"
#include "src/models/tcl.h"
#include "src/models/tricycle.h"
#include "src/stats/summary.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

// One immutable CSR snapshot per generated graph, reused for the average
// and the CCDF series; the mutable Graph is only the generation-side
// representation.
void PrintSeries(const char* dataset, const char* model,
                 const graph::Graph& g, size_t points) {
  const graph::CsrGraph snapshot = graph::CsrGraph::FromGraph(g);
  std::printf("# %s %s avg_local_cc=%.4f\n", dataset, model,
              stats::Summarize(snapshot).avg_local_clustering);
  for (const auto& [x, y] : eval::ClusteringCcdfSeries(snapshot, points)) {
    std::printf("%s %s %.5f %.6f\n", dataset, model, x, y);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  util::Flags flags = util::Flags::Parse(argc, argv);
  const auto points = static_cast<size_t>(flags.GetInt("points", 30));

  std::printf("# Figure 3: local clustering CCDF (dataset model cc ccdf)\n");
  for (datasets::DatasetId id : bench::SelectedDatasets(flags)) {
    graph::AttributedGraph g = bench::LoadDataset(id, flags);
    const char* name = datasets::PaperSpec(id).name.c_str();
    util::Rng rng(flags.GetInt("seed", 3) + static_cast<int>(id));
    const std::vector<uint32_t> degrees =
        graph::DegreeSequence(g.structure());
    const uint64_t triangles = graph::CountTriangles(g.structure());

    PrintSeries(name, "original", g.structure(), points);

    auto fcl = models::FastChungLu(degrees, rng);
    AGMDP_CHECK(fcl.ok());
    PrintSeries(name, "FCL", fcl.value(), points);

    const double rho = models::FitTclRho(g.structure(), rng);
    std::printf("# %s TCL fitted rho=%.3f\n", name, rho);
    auto tcl = models::GenerateTcl(degrees, rho, rng);
    AGMDP_CHECK(tcl.ok());
    PrintSeries(name, "TCL", tcl.value(), points);

    auto tricycle = models::GenerateTriCycLe(degrees, triangles, rng);
    AGMDP_CHECK(tricycle.ok());
    PrintSeries(name, "TriCycLe", tricycle.value().graph, points);

    // BTER (Section 3.3's other candidate; non-private comparison only).
    auto bter = models::GenerateBter(models::FitBter(g.structure()), rng);
    AGMDP_CHECK(bter.ok());
    PrintSeries(name, "BTER", bter.value(), points);
  }
  return 0;
}
