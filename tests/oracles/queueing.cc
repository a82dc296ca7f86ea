#include "oracles/queueing.hh"

#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace sim {
namespace queueing {

namespace {

void
checkStable(double lambda, double mu, unsigned servers = 1)
{
    WSC_ASSERT(lambda >= 0.0, "negative arrival rate");
    WSC_ASSERT(mu > 0.0, "non-positive service rate");
    WSC_ASSERT(lambda < mu * double(servers),
               "unstable queue: lambda " << lambda << " >= capacity "
                                         << mu * double(servers));
}

} // namespace

double
mm1MeanSojourn(double lambda, double mu)
{
    checkStable(lambda, mu);
    return 1.0 / (mu - lambda);
}

double
mm1MeanInSystem(double lambda, double mu)
{
    checkStable(lambda, mu);
    double rho = lambda / mu;
    return rho / (1.0 - rho);
}

double
mm1SojournQuantile(double lambda, double mu, double p)
{
    checkStable(lambda, mu);
    WSC_ASSERT(p > 0.0 && p < 1.0, "quantile out of (0, 1)");
    // Sojourn ~ Exp(mu - lambda).
    return -std::log(1.0 - p) / (mu - lambda);
}

double
erlangC(double lambda, double mu, unsigned servers)
{
    checkStable(lambda, mu, servers);
    WSC_ASSERT(servers >= 1, "need at least one server");
    double a = lambda / mu; // offered load in Erlangs
    double c = double(servers);
    // Sum_{k=0}^{c-1} a^k/k! computed iteratively.
    double term = 1.0;
    double sum = 1.0;
    for (unsigned k = 1; k < servers; ++k) {
        term *= a / double(k);
        sum += term;
    }
    double top = term * a / c; // a^c / c!
    double rho = a / c;
    double p_wait = top / ((1.0 - rho) * sum + top);
    return p_wait;
}

double
mmcMeanSojourn(double lambda, double mu, unsigned servers)
{
    checkStable(lambda, mu, servers);
    double c = double(servers);
    double w = erlangC(lambda, mu, servers) /
               (c * mu - lambda);
    return w + 1.0 / mu;
}

double
md1MeanWait(double lambda, double mu)
{
    checkStable(lambda, mu);
    double rho = lambda / mu;
    return rho / (2.0 * mu * (1.0 - rho));
}

double
mm1PsMeanSojourn(double lambda, double mu)
{
    return mm1MeanSojourn(lambda, mu);
}

} // namespace queueing
} // namespace sim
} // namespace wsc
