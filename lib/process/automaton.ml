type 'm interrupt = Start | Timer of float | Message of int * 'm

type 'm action =
  | Send of int * 'm
  | Broadcast of 'm
  | Set_timer_logical of float
  | Set_timer_phys of float

type ('s, 'm) t = {
  name : string;
  initial : 's;
  handle : self:int -> phys:float -> 'm interrupt -> 's -> 's * 'm action list;
  corr : 's -> float;
}

let stateless ~name handle =
  {
    name;
    initial = ();
    handle = (fun ~self ~phys interrupt () -> ((), handle ~self ~phys interrupt));
    corr = (fun () -> 0.);
  }

let pp_action pp_m ppf = function
  | Send (dst, m) -> Format.fprintf ppf "send(%d, %a)" dst pp_m m
  | Broadcast m -> Format.fprintf ppf "broadcast(%a)" pp_m m
  | Set_timer_logical v -> Format.fprintf ppf "set-timer-logical(%g)" v
  | Set_timer_phys v -> Format.fprintf ppf "set-timer-phys(%g)" v
