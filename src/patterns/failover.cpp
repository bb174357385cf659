#include "patterns/failover.hpp"

#include "core/builder.hpp"

namespace csaw::patterns {

std::vector<std::string> failover_backend_names(const FailoverOptions& o) {
  std::vector<std::string> names;
  for (std::size_t i = 1; i <= o.backends; ++i) {
    names.push_back(o.back_prefix + std::to_string(i));
  }
  return names;
}

ProgramSpec failover(const FailoverOptions& o) {
  ProgramBuilder p("failover");
  const auto backs = failover_backend_names(o);
  const std::string fb_inst = o.front_instance;  // "f"

  CtList back_serves;
  for (const auto& b : backs) back_serves.emplace_back(addr(b, "serve"));
  p.config("backends", CtValue(back_serves));
  p.function(o.complain).body(e_host(o.complain));

  const auto fb = jref(fb_inst, "b");
  const auto fc = jref(fb_inst, "c");
  const TimeRef t = TimeRef::variable(Symbol("t"));

  // def Initialize(tgt) <|  (Fig 12)
  //   verify !Activating & !Active;
  //   write(state, tgt);
  //   assert [tgt] Activating;
  //   wait [] !Activating;
  //   assert [tgt] Active;
  //   assert [f::c] Backend[tgt];
  //   retract [] Active;
  p.function("Initialize")
      .param("tgt", ParamDecl::Kind::kJunction)
      .body(e_seq({
          e_verify(f_and(f_not(f_prop("Activating")), f_not(f_prop("Active")))),
          e_write("state", var("tgt")),
          e_assert(pr("Activating"), var("tgt")),
          e_wait({}, f_not(f_prop("Activating"))),
          e_assert(pr("Active"), var("tgt")),
          // If we fail on this, the backend won't be used by f::c, and the
          // backend will reattempt reactivation later after a period of
          // inactivity expires (Fig 12's comment).
          e_assert(pr_idx("Backend", var("tgt")), fc),
          e_retract(pr("Active")),
      }));

  // --- tau_f :: b(backends, t)  (Fig 10) -----------------------------------
  {
    auto starting_branch = e_seq({
        // Canonical state must exist before any Initialize ships it.
        e_save("state", o.init_state),
        // for b in backends +  < wait [] InitBackend[b] otherwise[t] skip >
        e_for("b", SetRef::named(Symbol("backends")), Expr::Kind::kPar,
              e_fate(e_otherwise(
                  e_wait({}, f_prop_idx("InitBackend", var("b"))), t,
                  e_skip()))),
        e_retract(pr("HaveAtLeastOne")),
        // for b in backends ;  if InitBackend[b] then
        //   <| Initialize(b); assert [] HaveAtLeastOne; |> otherwise[t] skip
        e_for("b", SetRef::named(Symbol("backends")), Expr::Kind::kSeq,
              e_if(f_prop_idx("InitBackend", var("b")),
                   e_otherwise(
                       e_txn(e_seq({
                           e_call("Initialize", {NameTerm::variable(Symbol("b"))}),
                           // Next line relies on idempotence (Fig 10).
                           e_assert(pr("HaveAtLeastOne")),
                       })),
                       t, e_skip()))),
        e_if(f_not(f_prop("HaveAtLeastOne")), e_call(o.complain)),
        e_retract(pr("Retried")),
        // case { Starting => retract [f::c] Starting otherwise[t] ...;
        //        reconsider   otherwise => skip }
        e_case(
            {case_arm(f_prop("Starting"),
                     e_otherwise(e_retract(pr("Starting"), fc), t,
                                 e_if(f_not(f_prop("Retried")),
                                      e_assert(pr("Retried")),
                                      e_call(o.complain))),
                     Terminator::kReconsider)},
            e_skip()),
    });

    std::vector<CaseArm> serving_arms;
    serving_arms.push_back(case_arm(
        f_prop("Call"),
        e_seq({
            // Consume the request before granting it (Fig 10 retracts Call
            // last). f::c asserts its next Call as soon as this grant ends,
            // possibly while this run is still going; by the local-priority
            // rule a retract made after that arrival would drop it, and the
            // next request would wait out f::c's timeout.
            e_retract(pr("Call")),
            // If the client-facing side dies mid-request, its final
            // `retract [f::b] Active` never arrives; the fallback clears the
            // grant locally (the same self-heal idiom as Fig 14's serve) or
            // the Call protocol wedges on `verify !Active` forever.
            e_otherwise(e_fate(e_seq({
                            e_verify(f_not(f_prop("Active"))),
                            e_write("state", fc),
                            e_assert(pr("Active"), fc),
                            e_wait({Symbol("state")}, f_not(f_prop("Active"))),
                        })),
                        t,
                        e_seq({e_retract(pr("Active")), e_call(o.complain)})),
        }),
        Terminator::kBreak));
    // for b in backends  !Call & InitBackend[b] =>
    //   Initialize(b) otherwise[t] skip; retract [] InitBackend[b]; break
    serving_arms.push_back(case_arm_for(
        "b", SetRef::named(Symbol("backends")),
        f_and(f_not(f_prop("Call")), f_prop_idx("InitBackend", var("b"))),
        e_seq({
            // Transactional (unlike Fig 10) so a half-done Initialize rolls
            // back Activating/Active instead of wedging the Call protocol.
            e_otherwise(e_txn(e_call("Initialize",
                                     {NameTerm::variable(Symbol("b"))})),
                        t, e_skip()),
            e_retract(pr_idx("InitBackend", var("b"))),
        }),
        Terminator::kBreak));

    p.type("tau_f")
        .junction("b")
        .param("backends", ParamDecl::Kind::kSet)
        .param("t", ParamDecl::Kind::kTime)
        .init_data("state")
        .init_prop("Starting", true)
        .init_prop("Active", false)
        .init_prop("Activating", false)
        .init_prop("Retried", false)
        .init_prop("Call", false)
        .init_prop("HaveAtLeastOne", false)
        .for_init_prop("tgt", SetRef::named(Symbol("backends")), "Backend",
                       false)
        .for_init_prop("tgt", SetRef::named(Symbol("backends")),
                       "InitBackend", false)
        .guard(f_or(f_prop("Starting"),
                    f_or(f_prop("Call"),
                         f_for(Formula::Kind::kOr, "b", "backends",
                               f_prop_idx("InitBackend", var("b"))))))
        .auto_schedule()
        .body(e_if(f_prop("Starting"), starting_branch,
                   e_case(std::move(serving_arms), e_skip())));
  }

  // --- tau_f :: c(backends, t)  (Fig 13) ------------------------------------
  {
    const auto fan_body = e_if(
        f_prop_idx("Backend", var("b")),
        e_otherwise(
            e_txn(e_seq({
                e_verify(f_implies(
                    f_running(NameTerm::variable(Symbol("b"))),
                    f_and(f_prop_at(NameTerm::variable(Symbol("b")), "Active"),
                          f_not(f_prop_at(NameTerm::variable(Symbol("b")),
                                          "Running",
                                          NameTerm::variable(Symbol("b"))))))),
                e_write("req", var("b")),
                e_assert(pr_idx("Running", var("b")), var("b")),
                e_wait({Symbol("preresp")},
                       f_not(f_prop_idx("Running", var("b")))),
                e_assert(pr("HaveAtLeastOne")),
            })),
            t, e_retract(pr_idx("Backend", var("b")))));

    p.type("tau_f")
        .junction("c")
        .param("backends", ParamDecl::Kind::kSet)
        .param("t", ParamDecl::Kind::kTime)
        .init_prop("Starting", true)
        .init_prop("Active", false)
        .init_prop("Req", false)
        .init_prop("Call", false)
        .init_prop("HaveAtLeastOne", false)
        .init_data("state")
        .init_data("req")
        .init_data("preresp")
        .for_init_prop("tgt", SetRef::named(Symbol("backends")), "Backend",
                       false)
        .for_init_prop("tgt", SetRef::named(Symbol("backends")), "Running",
                       false)
        // Req is asserted externally to process client request (Fig 13).
        .guard(f_and(f_not(f_prop("Starting")), f_prop("Req")))
        .auto_schedule()
        .body(e_seq({
            e_retract(pr("Req")),
            e_retract(pr("Active")),  // clear any stale grant
            e_verify(f_not(f_prop("Call"))),
            e_assert(pr("Call"), fb),
            e_otherwise(e_wait({Symbol("state")}, f_prop("Active")), t,
                        e_seq({e_retract(pr("Call")), e_call(o.complain),
                               e_return()})),
            e_restore("state", o.unpack_state),
            e_retract(pr("Call")),
            e_host(o.h1),
            e_save("req", o.pack_request),
            e_retract(pr("HaveAtLeastOne")),
            // Fan-out: all-replicas in parallel (S7.3), or first-success in
            // order (the section's proposed lower-latency refinement).
            e_for("b", SetRef::named(Symbol("backends")),
                  o.engage_all ? Expr::Kind::kPar : Expr::Kind::kSeq,
                  o.engage_all
                      ? fan_body
                      : e_if(f_not(f_prop("HaveAtLeastOne")), fan_body)),
            e_if(f_not(f_prop("HaveAtLeastOne")), e_call(o.complain)),
            e_verify(f_prop("HaveAtLeastOne")),
            e_restore("preresp", o.unpack_preresp),
            e_save("state", o.pack_state),
            e_write("state", fb),
            e_host(o.h3),
            e_retract(pr("Active"), fb),
        }));
  }

  // --- tau_b :: serve(t, self, selfset)  (Fig 14) ---------------------------
  //
  // csaw-lint CSAW-W001 (accepted; suppressed with justification in the
  // tool's registry): serve's Activating/Active props are written by both
  // the front-end (f::b asserts Activating to recruit a spare) and the
  // backend's own reactivate watchdog (which retracts both when the backend
  // goes quiet). That write-write race IS the takeover protocol --
  // last-writer-wins decides whether the recruit or the reaper acted last,
  // and the runtime's authority-epoch fence nacks whichever side lost
  // authority in the meantime, so a stale retract cannot undo a newer
  // takeover.
  {
    std::vector<CaseArm> arms;
    arms.push_back(case_arm(
        f_prop("Activating"),
        e_seq({
            e_restore("state", o.unpack_state),
            // If the remote retraction fails, then b::reactivate will
            // eventually retry the startup (Fig 14's comment).
            e_otherwise(e_retract(pr("Activating"), fb), t,
                        e_retract(pr("Activating"))),
        }),
        Terminator::kBreak));

    p.type("tau_b")
        .junction("serve")
        .param("t", ParamDecl::Kind::kTime)
        .param("selfset", ParamDecl::Kind::kSet)
        .init_prop("Active", false)
        .init_prop("Activating", false)
        .init_prop("RecentlyActive", false)
        .init_data("preresp")
        .init_data("state")
        .init_data("req")
        .for_init_prop("s", SetRef::named(Symbol("selfset")), "Running",
                       false)
        .guard(f_or(f_prop("Activating"),
                    f_and(f_prop("Active"),
                          f_for(Formula::Kind::kOr, "s", "selfset",
                                f_prop_idx("Running", var("s"))))))
        .auto_schedule()
        .body(e_case(
            std::move(arms),
            e_seq({
                e_assert(pr("RecentlyActive"),
                         NameTerm::me_instance_junction(Symbol("reactivate"))),
                e_restore("req", o.unpack_request),
                e_host(o.h2),
                e_save("preresp", o.pack_preresp),
                e_otherwise(
                    e_fate(e_seq({
                        e_write("preresp", fc),
                        e_retract(pr_idx("Running", NameTerm::me_junction()),
                                  fc),
                    })),
                    t, e_retract(pr("Active"))),
            })));
  }

  // --- tau_b :: startup(t)  (Fig 14) ----------------------------------------
  p.type("tau_b")
      .junction("startup")
      .param("t", ParamDecl::Kind::kTime)
      .param("selfset", ParamDecl::Kind::kSet)
      .for_init_prop("s", SetRef::named(Symbol("selfset")), "InitBackend",
                     false)
      .guard(f_not(f_prop_at(NameTerm::me_instance_junction(Symbol("serve")),
                             "Active")))
      .auto_schedule()
      .body(e_otherwise(
          e_assert(pr_idx("InitBackend",
                          NameTerm::me_instance_junction(Symbol("serve"))),
                   fb),
          t, e_skip()));

  // --- tau_b :: reactivate(t)  (Fig 14) --------------------------------------
  //
  // csaw-lint CSAW-C001 (accepted; suppressed with justification in the
  // tool's registry): serve pushes RecentlyActive here, and reactivate
  // pushes retractions back to serve -- a blocking-push cycle on paper. It
  // cannot deadlock in practice because the cycle is never closed at the
  // same time: reactivate only pushes from inside the otherwise[t] arm,
  // i.e. after its `wait` sat a whole inactivity window in which serve (the
  // would-be other half of the cycle) made no push, and the wait itself
  // bounds how long serve's RecentlyActive push can block against it.
  p.type("tau_b")
      .junction("reactivate")
      .param("t", ParamDecl::Kind::kTime)
      .init_prop("RecentlyActive", false)
      .init_prop("Active", false)
      .init_prop("Activating", false)
      .auto_schedule()
      .body(e_seq({
          e_retract(pr("RecentlyActive")),
          e_otherwise(
              e_wait({}, f_prop("RecentlyActive")), t,
              e_fate(e_seq({
                  e_retract(pr("Active"),
                            NameTerm::me_instance_junction(Symbol("serve"))),
                  e_retract(pr("Activating"),
                            NameTerm::me_instance_junction(Symbol("serve"))),
              }))),
      }));

  // --- instances & main ------------------------------------------------------
  p.instance(fb_inst, "tau_f",
             {{"b", {CtValue(back_serves), CtValue(o.timeout_ms)}},
              {"c", {CtValue(back_serves), CtValue(o.timeout_ms)}}});
  for (const auto& b : backs) {
    const CtValue self(addr(b, "serve"));
    p.instance(b, "tau_b",
               {{"serve", {CtValue(o.timeout_ms), CtValue(CtList{self})}},
                {"startup", {CtValue(o.timeout_ms), CtValue(CtList{self})}},
                {"reactivate", {CtValue(o.reactivate_ms)}}});
  }

  // def main(t) <| start b1 ... + start b2 ... + start f ...  (Fig 12)
  std::vector<ExprPtr> starts;
  for (const auto& b : backs) starts.push_back(e_start(inst(b)));
  starts.push_back(e_start(inst(fb_inst)));
  p.main_body(e_par(std::move(starts)));
  return p.build();
}

}  // namespace csaw::patterns
