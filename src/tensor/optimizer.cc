#include "tensor/optimizer.h"

#include <cmath>

#include "obs/profile.h"
#include "tensor/kernels.h"

namespace vgod {

Optimizer::Optimizer(std::vector<Variable> params)
    : params_(std::move(params)) {
  for (const Variable& p : params_) {
    VGOD_CHECK(p.defined() && p.requires_grad())
        << "optimizer given a non-trainable variable";
  }
}

void Optimizer::ZeroGrad() {
  for (Variable& p : params_) p.ZeroGrad();
}

double Optimizer::GradNorm() const {
  VGOD_PROFILE_SCOPE("optim/grad_norm");
  double acc = 0.0;
  for (const Variable& p : params_) {
    if (!p.has_grad()) continue;
    Variable& mutable_p = const_cast<Variable&>(p);
    const Tensor& grad = mutable_p.grad();
    const float* g = grad.data();
    const int64_t n = grad.size();
    for (int64_t i = 0; i < n; ++i) {
      acc += static_cast<double>(g[i]) * g[i];
    }
  }
  return std::sqrt(acc);
}

Sgd::Sgd(std::vector<Variable> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (const Variable& p : params_) {
      velocity_.push_back(Tensor::Zeros(p.rows(), p.cols()));
    }
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable& p = params_[i];
    if (!p.has_grad()) continue;
    Tensor& value = const_cast<Tensor&>(p.value());
    if (momentum_ != 0.0f) {
      kernels::ScaleInPlace(&velocity_[i], momentum_);
      kernels::AddInPlace(&velocity_[i], p.grad());
      kernels::AxpyInPlace(&value, -lr_, velocity_[i]);
    } else {
      kernels::AxpyInPlace(&value, -lr_, p.grad());
    }
  }
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  for (const Variable& p : params_) {
    first_moment_.push_back(Tensor::Zeros(p.rows(), p.cols()));
    second_moment_.push_back(Tensor::Zeros(p.rows(), p.cols()));
  }
}

void Adam::Step() {
  VGOD_PROFILE_SCOPE("optim/adam_step");
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable& p = params_[i];
    if (!p.has_grad()) continue;
    Tensor& value = const_cast<Tensor&>(p.value());
    float* v = value.data();
    const float* g = p.grad().data();
    float* m = first_moment_[i].data();
    float* s = second_moment_[i].data();
    const int64_t n = value.size();
    for (int64_t j = 0; j < n; ++j) {
      float grad = g[j];
      if (weight_decay_ != 0.0f) grad += weight_decay_ * v[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
      s[j] = beta2_ * s[j] + (1.0f - beta2_) * grad * grad;
      const float m_hat = m[j] / bias1;
      const float s_hat = s[j] / bias2;
      v[j] -= lr_ * m_hat / (std::sqrt(s_hat) + eps_);
    }
  }
}

}  // namespace vgod
