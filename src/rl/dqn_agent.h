#ifndef ZEUS_RL_DQN_AGENT_H_
#define ZEUS_RL_DQN_AGENT_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/optimizer.h"
#include "rl/qnetwork.h"
#include "rl/replay_buffer.h"
#include "tensor/tensor.h"

namespace zeus::rl {

// How epsilon anneals across episodes.
enum class EpsilonSchedule {
  kExponential,  // epsilon *= epsilon_decay per episode
  kLinear,       // epsilon -= (start - end) / epsilon_linear_episodes
};

// Deep Q-learning agent (Mnih et al. 2013, as used in §4.3): an online
// Q-network trained on replayed minibatches against a periodically synced
// target network, with epsilon-greedy exploration and Huber TD loss.
// Optional extensions (ablations beyond the paper's vanilla DQN): Double
// DQN target decoupling and prioritized-replay importance weighting.
class DqnAgent {
 public:
  struct Options {
    int state_dim = 32;
    int num_actions = 8;
    int hidden_dim = 64;
    float gamma = 0.92f;        // discount
    float lr = 1e-3f;
    float epsilon_start = 1.0f;
    float epsilon_end = 0.05f;
    float epsilon_decay = 0.72f;  // multiplicative, per episode
    EpsilonSchedule epsilon_schedule = EpsilonSchedule::kExponential;
    int epsilon_linear_episodes = 8;  // for the linear schedule
    int target_sync_every = 32;   // updates between target syncs
    int batch_size = 128;
    float grad_clip = 5.0f;
    // Double DQN (van Hasselt et al. 2016): pick the argmax action with the
    // online network, evaluate it with the target network. Counters the
    // max-operator overestimation bias of vanilla DQN.
    bool double_dqn = false;
  };

  DqnAgent(const Options& opts, common::Rng* rng);

  // Epsilon-greedy action for a single state.
  int SelectAction(const std::vector<float>& state);

  // Pure greedy action (inference).
  int GreedyAction(const std::vector<float>& state);

  // Greedy action for every row of a {m, state_dim} batch, from one
  // Q-network forward; (*actions)[i] is GreedyAction of row i (the forward
  // is row-independent bit for bit, so batching never changes an action).
  void GreedyActions(const tensor::Tensor& states, std::vector<int>* actions);

  // Q-values for a single state.
  std::vector<float> QValues(const std::vector<float>& state);

  // One DQN update from a replay sample. Returns the Huber TD loss, or a
  // negative value if the buffer cannot supply a batch yet. Feeds TD errors
  // back into the buffer (a no-op for uniform replay, the priority update
  // for PrioritizedReplayBuffer).
  float TrainStep(ReplayBuffer& buffer);

  // Call at episode end: anneals epsilon per the configured schedule.
  void EndEpisode();

  float epsilon() const { return epsilon_; }
  void set_epsilon(float e) { epsilon_ = e; }
  const Options& options() const { return opts_; }
  int updates() const { return updates_; }

  QNetwork& online() { return *online_; }

  common::Status Save(const std::string& path) { return online_->Save(path); }
  common::Status Load(const std::string& path);

 private:
  // The one inference path: {m, state_dim} states -> {m, num_actions}.
  tensor::Tensor InferQ(const tensor::Tensor& states);
  tensor::Tensor InferQ(const std::vector<float>& state);

  Options opts_;
  common::Rng rng_;
  std::unique_ptr<QNetwork> online_;
  std::unique_ptr<QNetwork> target_;
  std::unique_ptr<nn::Adam> optimizer_;
  float epsilon_;
  int updates_ = 0;
};

}  // namespace zeus::rl

#endif  // ZEUS_RL_DQN_AGENT_H_
