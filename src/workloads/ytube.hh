/**
 * @file
 * The ytube benchmark: rich-media streaming.
 *
 * Models the paper's modified SPECweb2005 Support workload driven with
 * YouTube traffic characteristics from Gill et al.'s edge-server study:
 * video popularity follows a Zipf distribution, transfer sizes follow a
 * heavy-tailed distribution, and delivery is paced per connection to
 * model streaming behavior. Popular videos are served from the page
 * cache; the tail goes to disk. The workload is predominantly
 * IO-bounded (paper Section 2.1).
 *
 * QoS: requests per second while keeping QoS violations comparable; we
 * realize this as a 95th-percentile bound on in-server latency.
 */

#ifndef WSC_WORKLOADS_YTUBE_HH
#define WSC_WORKLOADS_YTUBE_HH

#include "sim/distributions.hh"
#include "workloads/workload.hh"

namespace wsc {
namespace workloads {

/** Configuration knobs for the ytube generator. */
struct YtubeParams {
    std::uint64_t catalogSize = 100000; //!< distinct videos served
    double popularityZipf = 0.9;        //!< Gill et al. skew
    double meanTransferMB = 1.5;        //!< mean bytes per request
    double covTransfer = 1.5;           //!< heavy-tailed sizes
    /** CPU work per MB delivered (copy, TCP, container parsing). */
    double cpuWorkPerMB = 9.0e-3;
    /** Fixed per-request CPU work (HTTP, session, index lookup). */
    double cpuWorkBase = 1.0e-3;
};

/**
 * Ytube request generator.
 */
class Ytube : public InteractiveWorkload
{
  public:
    explicit Ytube(YtubeParams params = {});

    std::string name() const override { return "ytube"; }

    WorkloadTraits
    traits() const override
    {
        WorkloadTraits t;
        // IO-bound: minimal cache/CPU-scaling sensitivity. The paced
        // delivery cap models streaming QoS limiting aggregate NIC
        // delivery even on 10 GbE (see perfsim/calibration.hh).
        t.cacheBeta = 0.02;
        t.cpuScalingGamma = 1.0;
        t.diskCacheHitRate = 0.85; // Zipf head resident in page cache
        t.streamPacingCapMBs = 135.0;
        return t;
    }

    QosSpec
    qos() const override
    {
        return QosSpec{0.95, 1.0};
    }

    ServiceDemand nextRequest(Rng &rng) override;

    ServiceDemand meanDemand() const override;

    /** Popularity rank of the next requested video. */
    std::uint64_t sampleVideoRank(Rng &rng);

    const YtubeParams &params() const { return p; }

  private:
    YtubeParams p;
    sim::ZipfDist popularity;
    sim::LognormalDist transferSize;
};

} // namespace workloads
} // namespace wsc

#endif // WSC_WORKLOADS_YTUBE_HH
