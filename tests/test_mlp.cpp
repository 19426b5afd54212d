/**
 * @file
 * Unit tests for the MLP: shapes, training convergence, determinism.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"

namespace ml = homunculus::ml;
namespace hm = homunculus::math;

namespace {

/** Two gaussian blobs, linearly separable with margin. */
ml::Dataset
makeBlobs(std::size_t n, std::uint64_t seed, double separation = 3.0)
{
    homunculus::common::Rng rng(seed);
    ml::Dataset data;
    data.x = hm::Matrix(n, 2);
    data.y.resize(n);
    data.numClasses = 2;
    for (std::size_t i = 0; i < n; ++i) {
        int label = static_cast<int>(i % 2);
        double cx = label == 0 ? -separation / 2 : separation / 2;
        data.x(i, 0) = rng.gaussian(cx, 0.7);
        data.x(i, 1) = rng.gaussian(label == 0 ? -1.0 : 1.0, 0.7);
        data.y[i] = label;
    }
    return data;
}

/** XOR-style dataset: not linearly separable. */
ml::Dataset
makeXor(std::size_t n, std::uint64_t seed)
{
    homunculus::common::Rng rng(seed);
    ml::Dataset data;
    data.x = hm::Matrix(n, 2);
    data.y.resize(n);
    data.numClasses = 2;
    for (std::size_t i = 0; i < n; ++i) {
        double a = rng.uniform(-1, 1);
        double b = rng.uniform(-1, 1);
        data.x(i, 0) = a;
        data.x(i, 1) = b;
        data.y[i] = (a * b > 0) ? 1 : 0;
    }
    return data;
}

}  // namespace

TEST(MlpConfig, ParamCountFormula)
{
    ml::MlpConfig config;
    config.inputDim = 7;
    config.hiddenLayers = {10, 10, 5};
    config.numClasses = 2;
    // 7*10+10 + 10*10+10 + 10*5+5 + 5*2+2 = 80+110+55+12 = 257.
    EXPECT_EQ(config.paramCount(), 257u);
    EXPECT_EQ(config.layerDims(),
              (std::vector<std::size_t>{7, 10, 10, 5, 2}));
}

TEST(MlpConfig, NoHiddenLayersIsLogisticRegression)
{
    ml::MlpConfig config;
    config.inputDim = 4;
    config.numClasses = 3;
    EXPECT_EQ(config.paramCount(), 4u * 3u + 3u);
}

TEST(Mlp, PredictShapes)
{
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {4};
    config.numClasses = 2;
    ml::Mlp mlp(config);
    auto data = makeBlobs(10, 1);
    auto proba = mlp.predictProba(data.x);
    EXPECT_EQ(proba.rows(), 10u);
    EXPECT_EQ(proba.cols(), 2u);
    auto labels = mlp.predict(data.x);
    EXPECT_EQ(labels.size(), 10u);
}

TEST(Mlp, SoftmaxRowsSumToOne)
{
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {6};
    config.numClasses = 3;
    ml::Mlp mlp(config);
    hm::Matrix x(5, 2, 0.3);
    auto proba = mlp.predictProba(x);
    for (std::size_t r = 0; r < proba.rows(); ++r) {
        double total = 0.0;
        for (std::size_t c = 0; c < proba.cols(); ++c) {
            total += proba(r, c);
            EXPECT_GE(proba(r, c), 0.0);
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(Mlp, LearnsLinearlySeparableBlobs)
{
    auto train = makeBlobs(400, 2);
    auto test = makeBlobs(200, 3);
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {8};
    config.numClasses = 2;
    config.epochs = 40;
    ml::Mlp mlp(config);
    mlp.train(train);
    EXPECT_GT(ml::accuracy(test.y, mlp.predict(test.x)), 0.95);
}

TEST(Mlp, LearnsXorWithHiddenLayer)
{
    auto train = makeXor(600, 4);
    auto test = makeXor(300, 5);
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {16, 8};
    config.numClasses = 2;
    config.epochs = 80;
    config.learningRate = 0.01;
    ml::Mlp mlp(config);
    mlp.train(train);
    EXPECT_GT(ml::accuracy(test.y, mlp.predict(test.x)), 0.9);
}

TEST(Mlp, TrainingReducesLoss)
{
    auto data = makeBlobs(300, 6);
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {8};
    config.numClasses = 2;
    config.epochs = 30;
    ml::Mlp mlp(config);
    double before = mlp.loss(data);
    mlp.train(data);
    EXPECT_LT(mlp.loss(data), before);
}

TEST(Mlp, DeterministicGivenSeed)
{
    auto data = makeBlobs(200, 7);
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {6};
    config.numClasses = 2;
    config.epochs = 10;
    config.seed = 99;
    ml::Mlp a(config), b(config);
    a.train(data);
    b.train(data);
    for (std::size_t l = 0; l < a.weights().size(); ++l)
        for (std::size_t i = 0; i < a.weights()[l].size(); ++i)
            EXPECT_DOUBLE_EQ(a.weights()[l].data()[i],
                             b.weights()[l].data()[i]);
}

TEST(Mlp, SgdFallbackAlsoLearns)
{
    auto data = makeBlobs(400, 8);
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {8};
    config.numClasses = 2;
    config.epochs = 60;
    config.useAdam = false;
    config.learningRate = 0.05;
    ml::Mlp mlp(config);
    mlp.train(data);
    EXPECT_GT(ml::accuracy(data.y, mlp.predict(data.x)), 0.9);
}

TEST(Mlp, SetParametersRoundTrip)
{
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {3};
    config.numClasses = 2;
    ml::Mlp mlp(config);
    auto weights = mlp.weights();
    auto biases = mlp.biases();
    weights[0](0, 0) = 42.0;
    mlp.setParameters(weights, biases);
    EXPECT_DOUBLE_EQ(mlp.weights()[0](0, 0), 42.0);
}

TEST(Mlp, ActivationNamesRoundTrip)
{
    for (auto act : {ml::Activation::kRelu, ml::Activation::kTanh,
                     ml::Activation::kSigmoid}) {
        EXPECT_EQ(ml::activationFromName(ml::activationName(act)), act);
    }
    EXPECT_THROW(ml::activationFromName("bogus"), std::runtime_error);
}

TEST(Mlp, TanhActivationTrains)
{
    auto data = makeBlobs(300, 10);
    ml::MlpConfig config;
    config.inputDim = 2;
    config.hiddenLayers = {8};
    config.numClasses = 2;
    config.activation = ml::Activation::kTanh;
    config.epochs = 40;
    ml::Mlp mlp(config);
    mlp.train(data);
    EXPECT_GT(ml::accuracy(data.y, mlp.predict(data.x)), 0.9);
}

namespace {

/** Mixed-sign rows over @p dims features and @p classes labels; every
 *  third row has an exact-zero first feature, so the trainer's
 *  zero-activation skip is exercised from the input layer on. */
ml::Dataset
makeMixed(std::size_t n, std::size_t dims, int classes, std::uint64_t seed)
{
    homunculus::common::Rng rng(seed);
    ml::Dataset data;
    data.x = hm::Matrix(n, dims);
    data.y.resize(n);
    data.numClasses = classes;
    for (std::size_t i = 0; i < n; ++i) {
        int label = static_cast<int>(i % static_cast<std::size_t>(classes));
        for (std::size_t d = 0; d < dims; ++d)
            data.x(i, d) = rng.gaussian(d % 2 == 0 ? label : -label, 1.0);
        if (i % 3 == 0)
            data.x(i, 0) = 0.0;
        data.y[i] = label;
    }
    return data;
}

/** 64-bit FNV-1a step over the raw bytes of one double. */
void
fnvMix(std::uint64_t &hash, double value)
{
    unsigned char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001B3ull;
    }
}

}  // namespace

TEST(Mlp, TrainMatchesPinnedDigest)
{
    // Digests of every weight, bias and returned loss, captured from the
    // matrix-op trainer (one allocation per intermediate) that the
    // workspace trainer replaced: any change to a summation order shows.
    struct Case
    {
        const char *name;
        std::vector<std::size_t> hidden;
        ml::Activation activation;
        bool useAdam;
        double l2Penalty;
        std::size_t batchSize;
        int classes;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"relu_adam", {8, 5}, ml::Activation::kRelu, true, 0.0, 32, 2,
         0xf43f2186af1011e8ull},
        {"relu_adam_l2", {6}, ml::Activation::kRelu, true, 1e-3, 17, 3,
         0xe8a150f7cd9af715ull},
        {"tanh_adam_l2", {7, 4}, ml::Activation::kTanh, true, 1e-3, 32, 3,
         0xe06eb51758ecfedaull},
        {"sigmoid_sgd", {5}, ml::Activation::kSigmoid, false, 0.0, 24, 2,
         0x68ce700a074951eaull},
        {"tanh_sgd_l2", {9}, ml::Activation::kTanh, false, 1e-3, 50, 2,
         0x2ded9ba08394f415ull},
        {"relu_sgd", {4, 4, 3}, ml::Activation::kRelu, false, 0.0, 64, 3,
         0x521cf0e39b8972f0ull},
        {"no_hidden_adam", {}, ml::Activation::kSigmoid, true, 1e-3, 40, 3,
         0x6234b845447843c1ull},
        {"no_hidden_sgd", {}, ml::Activation::kRelu, false, 0.0, 1000, 2,
         0xad957419a6b1eec0ull},
    };
    for (const Case &c : cases) {
        // 203 rows: no batch size above divides it, so every epoch ends
        // on a partial minibatch.
        ml::Dataset data = makeMixed(203, 5, c.classes, 31);
        ml::MlpConfig config;
        config.inputDim = 5;
        config.hiddenLayers = c.hidden;
        config.numClasses = c.classes;
        config.activation = c.activation;
        config.useAdam = c.useAdam;
        config.l2Penalty = c.l2Penalty;
        config.batchSize = c.batchSize;
        config.learningRate = c.useAdam ? 0.01 : 0.05;
        config.epochs = 4;
        config.seed = 17;
        ml::Mlp mlp(config);
        std::uint64_t hash = 0xCBF29CE484222325ull;
        // Two train() calls: the second continues from the first one's
        // weights and Adam moments.
        fnvMix(hash, mlp.train(data));
        fnvMix(hash, mlp.train(makeMixed(97, 5, c.classes, 32)));
        for (std::size_t l = 0; l < mlp.weights().size(); ++l) {
            for (double w : mlp.weights()[l].data())
                fnvMix(hash, w);
            for (double b : mlp.biases()[l])
                fnvMix(hash, b);
        }
        EXPECT_EQ(hash, c.digest) << c.name;
    }
}
