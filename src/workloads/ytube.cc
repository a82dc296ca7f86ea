#include "workloads/ytube.hh"

namespace wsc {
namespace workloads {

Ytube::Ytube(YtubeParams params)
    : p(params), popularity(p.catalogSize, p.popularityZipf),
      transferSize(p.meanTransferMB, p.covTransfer)
{
}

std::uint64_t
Ytube::sampleVideoRank(Rng &rng)
{
    return popularity.sampleRank(rng);
}

ServiceDemand
Ytube::nextRequest(Rng &rng)
{
    // Popularity drives cache behavior through the trait-level hit
    // rate, so the rank is never used: consume its uniform and skip
    // the inversion (sampleVideoRank draws the same one).
    (void)rng.uniform();
    double mb = transferSize.sampleImpl(rng);
    ServiceDemand d;
    d.cpuWork = p.cpuWorkBase + p.cpuWorkPerMB * mb;
    d.diskReadBytes = mb * 1.0e6;
    d.netBytes = mb * 1.0e6;
    return d;
}

ServiceDemand
Ytube::meanDemand() const
{
    ServiceDemand d;
    d.cpuWork = p.cpuWorkBase + p.cpuWorkPerMB * p.meanTransferMB;
    d.diskReadBytes = p.meanTransferMB * 1.0e6;
    d.diskReadOps = 1.0;
    d.netBytes = p.meanTransferMB * 1.0e6;
    return d;
}

} // namespace workloads
} // namespace wsc
