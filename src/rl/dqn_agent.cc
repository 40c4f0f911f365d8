#include "rl/dqn_agent.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"

namespace zeus::rl {

DqnAgent::DqnAgent(const Options& opts, common::Rng* rng)
    : opts_(opts), rng_(rng->Fork()), epsilon_(opts.epsilon_start) {
  online_ = std::make_unique<QNetwork>(opts.state_dim, opts.num_actions,
                                       opts.hidden_dim, &rng_);
  target_ = std::make_unique<QNetwork>(opts.state_dim, opts.num_actions,
                                       opts.hidden_dim, &rng_);
  ZEUS_CHECK(target_->CopyWeightsFrom(*online_).ok());
  optimizer_ = std::make_unique<nn::Adam>(online_->Parameters(), opts.lr);
}

int DqnAgent::SelectAction(const std::vector<float>& state) {
  if (rng_.NextBernoulli(epsilon_)) {
    return rng_.NextInt(0, opts_.num_actions - 1);
  }
  return GreedyAction(state);
}

namespace {

// Index of the first maximum of row `row` of a {m, n} tensor.
int RowArgmax(const tensor::Tensor& q, int row) {
  const int n = q.dim(1);
  const float* r = q.data() + static_cast<size_t>(row) * n;
  return static_cast<int>(std::max_element(r, r + n) - r);
}

}  // namespace

tensor::Tensor DqnAgent::InferQ(const tensor::Tensor& states) {
  ZEUS_CHECK(states.ndim() == 2 && states.dim(1) == opts_.state_dim);
  return online_->Forward(states, /*train=*/false);
}

tensor::Tensor DqnAgent::InferQ(const std::vector<float>& state) {
  ZEUS_CHECK(static_cast<int>(state.size()) == opts_.state_dim);
  return InferQ(tensor::Tensor::FromData({1, opts_.state_dim},
                                         std::vector<float>(state)));
}

int DqnAgent::GreedyAction(const std::vector<float>& state) {
  return RowArgmax(InferQ(state), 0);
}

void DqnAgent::GreedyActions(const tensor::Tensor& states,
                             std::vector<int>* actions) {
  const tensor::Tensor q = InferQ(states);
  actions->resize(static_cast<size_t>(q.dim(0)));
  for (int i = 0; i < q.dim(0); ++i) {
    (*actions)[static_cast<size_t>(i)] = RowArgmax(q, i);
  }
}

std::vector<float> DqnAgent::QValues(const std::vector<float>& state) {
  return InferQ(state).vec();
}

float DqnAgent::TrainStep(ReplayBuffer& buffer) {
  const size_t batch = static_cast<size_t>(opts_.batch_size);
  if (!buffer.CanSample(batch)) return -1.0f;
  ReplayBuffer::SampleResult sample = buffer.SampleBatch(batch, &rng_);
  const int n = static_cast<int>(sample.items.size());
  const int sd = opts_.state_dim;
  const int na = opts_.num_actions;

  tensor::Tensor states({n, sd});
  tensor::Tensor next_states({n, sd});
  for (int i = 0; i < n; ++i) {
    std::copy(sample.items[static_cast<size_t>(i)]->state.begin(),
              sample.items[static_cast<size_t>(i)]->state.end(),
              states.data() + static_cast<size_t>(i) * sd);
    std::copy(sample.items[static_cast<size_t>(i)]->next_state.begin(),
              sample.items[static_cast<size_t>(i)]->next_state.end(),
              next_states.data() + static_cast<size_t>(i) * sd);
  }

  // TD targets from the frozen target network. Double DQN decouples action
  // selection (online net) from evaluation (target net).
  tensor::Tensor next_q = target_->Forward(next_states, /*train=*/false);
  tensor::Tensor next_q_online;
  if (opts_.double_dqn) {
    next_q_online = online_->Forward(next_states, /*train=*/false);
  }
  tensor::Tensor pred_selected({n});
  tensor::Tensor target_selected({n});

  tensor::Tensor q = online_->Forward(states, /*train=*/true);
  for (int i = 0; i < n; ++i) {
    const Experience& e = *sample.items[static_cast<size_t>(i)];
    float next_value;
    if (opts_.double_dqn) {
      int best = 0;
      for (int a = 1; a < na; ++a) {
        if (next_q_online[static_cast<size_t>(i) * na + a] >
            next_q_online[static_cast<size_t>(i) * na + best]) {
          best = a;
        }
      }
      next_value = next_q[static_cast<size_t>(i) * na + best];
    } else {
      next_value = next_q[static_cast<size_t>(i) * na];
      for (int a = 1; a < na; ++a) {
        next_value =
            std::max(next_value, next_q[static_cast<size_t>(i) * na + a]);
      }
    }
    pred_selected[static_cast<size_t>(i)] =
        q[static_cast<size_t>(i) * na + e.action];
    target_selected[static_cast<size_t>(i)] =
        e.reward + (e.done ? 0.0f : opts_.gamma * next_value);
  }

  nn::LossResult loss = nn::Huber(pred_selected, target_selected);
  // Report TD errors back to the buffer (priority update for PER).
  std::vector<float> td_errors(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    td_errors[static_cast<size_t>(i)] =
        pred_selected[static_cast<size_t>(i)] -
        target_selected[static_cast<size_t>(i)];
  }
  buffer.UpdatePriorities(sample.indices, td_errors);

  // Scatter the per-sample gradient back onto the selected actions only,
  // scaled by the importance weights (all 1 for uniform replay).
  tensor::Tensor grad_q({n, na});
  for (int i = 0; i < n; ++i) {
    const Experience& e = *sample.items[static_cast<size_t>(i)];
    grad_q[static_cast<size_t>(i) * na + e.action] =
        loss.grad[static_cast<size_t>(i)] *
        sample.weights[static_cast<size_t>(i)];
  }
  online_->Backward(grad_q);
  nn::ClipGradNorm(online_->Parameters(), opts_.grad_clip);
  optimizer_->Step();

  ++updates_;
  if (updates_ % opts_.target_sync_every == 0) {
    ZEUS_CHECK(target_->CopyWeightsFrom(*online_).ok());
  }
  return loss.loss;
}

void DqnAgent::EndEpisode() {
  switch (opts_.epsilon_schedule) {
    case EpsilonSchedule::kExponential:
      epsilon_ = std::max(opts_.epsilon_end, epsilon_ * opts_.epsilon_decay);
      break;
    case EpsilonSchedule::kLinear: {
      float step = (opts_.epsilon_start - opts_.epsilon_end) /
                   static_cast<float>(std::max(1, opts_.epsilon_linear_episodes));
      epsilon_ = std::max(opts_.epsilon_end, epsilon_ - step);
      break;
    }
  }
}

common::Status DqnAgent::Load(const std::string& path) {
  ZEUS_RETURN_IF_ERROR(online_->Load(path));
  return target_->CopyWeightsFrom(*online_);
}

}  // namespace zeus::rl
