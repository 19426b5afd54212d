#include "opt/acquisition.hpp"

#include <algorithm>
#include <cmath>

#include "math/stats.hpp"

namespace homunculus::opt {

double
expectedImprovement(double mean, double variance, double best, bool maximize,
                    double xi)
{
    double sigma = std::sqrt(std::max(variance, 0.0));
    double improvement = maximize ? mean - best - xi : best - mean - xi;
    if (sigma < 1e-12)
        return std::max(improvement, 0.0);
    double z = improvement / sigma;
    return improvement * math::normalCdf(z) + sigma * math::normalPdf(z);
}

}  // namespace homunculus::opt
